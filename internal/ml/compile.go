package ml

import (
	"errors"
	"fmt"
	"math"
)

// Tier identifies which dispatch tier produced a prediction. The deployment
// runtime routes every selection through a tier ladder — memo cache, compiled
// artifact, exact classifier — and records which rung decided, so traces and
// stats can attribute latency and verify the fast paths stay honest.
type Tier int32

const (
	// TierNone means no prediction was made (no model installed).
	TierNone Tier = iota
	// TierExact means the full classifier (scaler + SVM/kNN/tree/logistic)
	// was evaluated.
	TierExact
	// TierCompiled means the distilled compiled artifact decided, with margin
	// clearance from every decision boundary it crossed.
	TierCompiled
	// TierMemo means the runtime's memoization cache returned a previously
	// computed prediction for an identical feature vector.
	TierMemo
)

// String implements fmt.Stringer. TierNone renders empty so trace lines and
// JSON can omit the field when no model participated.
func (t Tier) String() string {
	switch t {
	case TierExact:
		return "exact"
	case TierCompiled:
		return "compiled"
	case TierMemo:
		return "memo"
	default:
		return ""
	}
}

// CompiledNode is one instruction of the flattened decision program. Internal
// nodes compare scaled[Feature] <= Threshold and jump to Left or Right; leaves
// (Left < 0) return Classes[Class]. Child indices always point forward
// (strictly greater than the node's own index), so a validated program cannot
// loop — every walk terminates in at most len(Nodes) steps.
type CompiledNode struct {
	Feature   int32
	Left      int32
	Right     int32
	Class     int32
	Threshold float64
}

// Compiled is the distilled fast-dispatch artifact: a flattened
// threshold-comparison program over the scaled feature space, distilled from
// the exact model's own labels (see Distill), plus calibration metadata. A
// walk that passes within Margin of any split boundary it evaluates reports
// ok=false and the caller must consult the exact model — by construction the
// calibrated Margin routes every distillation-corpus disagreement to the
// exact path, so served agreement on that corpus is 100%.
type Compiled struct {
	// Nodes is the decision program; Nodes[0] is the root.
	Nodes []CompiledNode
	// Classes are the labels leaf Class indices resolve to.
	Classes []int
	// Dim is the scaled feature dimensionality the program expects.
	Dim int
	// Margin is the calibrated boundary-clearance threshold (scaled space).
	Margin float64
	// Agreement is the raw tree-vs-exact agreement over the distillation
	// corpus, before margin routing (the >= MinAgreement install gate).
	Agreement float64
	// FallbackRate is the corpus fraction whose walk margin fell below
	// Margin and would be routed to the exact model.
	FallbackRate float64
	// CorpusSize is the number of corpus vectors the artifact was distilled
	// and calibrated on.
	CorpusSize int
	// Grid is the optional precomputed decision grid (nil when disabled).
	Grid *DecisionGrid
}

// DecisionGrid is an optional precomputed lookup over a bounded box of the
// scaled feature space. Each cell stores the class index the whole cell maps
// to with at least Margin clearance at every split, or -1 when any point of
// the cell could land near a boundary (those take the tree walk instead).
type DecisionGrid struct {
	// Res is the number of cells per dimension.
	Res int
	// Lo / Hi are the box corners, one per dimension.
	Lo []float64
	Hi []float64
	// Cells is the row-major cell table, len Res^dim; values index
	// Compiled.Classes, -1 marks walk-required cells.
	Cells []int8
}

// DistillOptions configures Distill. The zero value is usable: depth-8 CART,
// 99% agreement gate, 50% fallback-rate cap, no grid.
type DistillOptions struct {
	// MaxDepth bounds the CART tree depth (default 8).
	MaxDepth int
	// MinLeaf is the minimum samples per leaf (default 1).
	MinLeaf int
	// MinAgreement is the install gate: raw tree-vs-exact agreement on the
	// corpus must be at least this (default 0.99).
	MinAgreement float64
	// MaxFallbackRate rejects artifacts whose calibrated margin routes more
	// than this corpus fraction to the exact model (default 0.5) — a fast
	// path nobody hits is not a fast path.
	MaxFallbackRate float64
	// Grid additionally precomputes a decision grid when the feature space is
	// low-dimensional (Dim <= 3).
	Grid bool
	// GridRes is the grid resolution per dimension (default 24).
	GridRes int
}

// DefaultDistillOptions returns the zero value with defaults filled — the
// configuration Distill actually runs with when given DistillOptions{}.
func DefaultDistillOptions() DistillOptions {
	return DistillOptions{}.normalized()
}

// normalized fills defaults.
func (o DistillOptions) normalized() DistillOptions {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 8
	}
	if o.MinLeaf <= 0 {
		o.MinLeaf = 1
	}
	if o.MinAgreement <= 0 {
		o.MinAgreement = 0.99
	}
	if o.MaxFallbackRate <= 0 {
		o.MaxFallbackRate = 0.5
	}
	if o.GridRes <= 0 {
		o.GridRes = 24
	}
	return o
}

// ErrDistillRejected reports that distillation produced an artifact that
// failed an install gate (agreement or fallback rate); the model keeps its
// exact-only dispatch.
var ErrDistillRejected = errors.New("ml: distilled artifact rejected")

// maxGridDim bounds grid dimensionality: cells grow as Res^dim.
const maxGridDim = 3

// gridPad widens the grid box past the corpus extremes (scaled space) so
// mildly extrapolated inputs still hit the grid.
const gridPad = 0.1

// Predict walks the compiled program over a scaled feature vector and returns
// the predicted class label plus ok=true when the walk kept at least Margin
// clearance from every boundary it evaluated. ok=false means the caller must
// fall back to the exact model. x must have length Dim.
func (c *Compiled) Predict(x []float64) (int, bool) {
	if g := c.Grid; g != nil {
		if ci := g.lookup(x); ci >= 0 {
			return c.Classes[ci], true
		}
	}
	class, margin := c.walk(x)
	return class, margin >= c.Margin
}

// walk runs the decision program and returns the leaf's class label and the
// minimum boundary distance along the path (+Inf for a single-leaf program).
func (c *Compiled) walk(x []float64) (class int, margin float64) {
	margin = math.Inf(1)
	i := 0
	for {
		n := &c.Nodes[i]
		if n.Left < 0 {
			return c.Classes[n.Class], margin
		}
		d := x[n.Feature] - n.Threshold
		if d <= 0 {
			if -d < margin {
				margin = -d
			}
			i = int(n.Left)
		} else {
			if d < margin {
				margin = d
			}
			i = int(n.Right)
		}
	}
}

// lookup maps x to its cell's class index, or -1 when x falls outside the box
// or in a walk-required cell.
func (g *DecisionGrid) lookup(x []float64) int {
	idx := 0
	for j, v := range x {
		lo, hi := g.Lo[j], g.Hi[j]
		if v < lo || v >= hi {
			return -1
		}
		cell := int(float64(g.Res) * (v - lo) / (hi - lo))
		if cell >= g.Res { // float round-up at the top edge
			cell = g.Res - 1
		}
		idx = idx*g.Res + cell
	}
	return int(g.Cells[idx])
}

// Validate checks structural integrity: every child edge points forward and
// in range (so walks terminate), every feature and class index resolves, and
// calibration metadata is sane. Deserialized artifacts must pass Validate
// before use — UnmarshalModel enforces this.
func (c *Compiled) Validate() error {
	if len(c.Nodes) == 0 {
		return errors.New("ml: compiled artifact has no nodes")
	}
	if c.Dim < 1 {
		return fmt.Errorf("ml: compiled artifact dim %d < 1", c.Dim)
	}
	if len(c.Classes) == 0 {
		return errors.New("ml: compiled artifact has no classes")
	}
	if math.IsNaN(c.Margin) || math.IsInf(c.Margin, 0) || c.Margin < 0 {
		return fmt.Errorf("ml: compiled artifact margin %v invalid", c.Margin)
	}
	if math.IsNaN(c.Agreement) || c.Agreement < 0 || c.Agreement > 1 {
		return fmt.Errorf("ml: compiled artifact agreement %v invalid", c.Agreement)
	}
	if math.IsNaN(c.FallbackRate) || c.FallbackRate < 0 || c.FallbackRate > 1 {
		return fmt.Errorf("ml: compiled artifact fallback rate %v invalid", c.FallbackRate)
	}
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if n.Left < 0 { // leaf
			if n.Class < 0 || int(n.Class) >= len(c.Classes) {
				return fmt.Errorf("ml: compiled node %d: class index %d out of range", i, n.Class)
			}
			continue
		}
		if n.Feature < 0 || int(n.Feature) >= c.Dim {
			return fmt.Errorf("ml: compiled node %d: feature %d out of range", i, n.Feature)
		}
		if int(n.Left) <= i || int(n.Left) >= len(c.Nodes) {
			return fmt.Errorf("ml: compiled node %d: left child %d is not a forward edge", i, n.Left)
		}
		if n.Right <= int32(i) || int(n.Right) >= len(c.Nodes) {
			return fmt.Errorf("ml: compiled node %d: right child %d is not a forward edge", i, n.Right)
		}
		if math.IsNaN(n.Threshold) {
			return fmt.Errorf("ml: compiled node %d: NaN threshold", i)
		}
	}
	if g := c.Grid; g != nil {
		if g.Res < 1 || g.Res > 1024 {
			return fmt.Errorf("ml: decision grid res %d out of range", g.Res)
		}
		if len(g.Lo) != c.Dim || len(g.Hi) != c.Dim {
			return fmt.Errorf("ml: decision grid corners have %d/%d dims, want %d", len(g.Lo), len(g.Hi), c.Dim)
		}
		cells := 1
		for j := 0; j < c.Dim; j++ {
			if !(g.Lo[j] < g.Hi[j]) { // also rejects NaN
				return fmt.Errorf("ml: decision grid dim %d: lo %v >= hi %v", j, g.Lo[j], g.Hi[j])
			}
			if cells > len(g.Cells) { // overflow guard before multiply
				return errors.New("ml: decision grid cell table too small")
			}
			cells *= g.Res
		}
		if len(g.Cells) != cells {
			return fmt.Errorf("ml: decision grid has %d cells, want %d", len(g.Cells), cells)
		}
		for i, ci := range g.Cells {
			if ci < -1 || int(ci) >= len(c.Classes) {
				return fmt.Errorf("ml: decision grid cell %d: class index %d out of range", i, ci)
			}
		}
	}
	return nil
}

// Depth returns the longest root-to-leaf path length (edges) of the program.
func (c *Compiled) Depth() int {
	if len(c.Nodes) == 0 {
		return 0
	}
	depth := make([]int, len(c.Nodes))
	best := 0
	// Children are forward edges, so one forward sweep settles all depths.
	for i := range c.Nodes {
		n := &c.Nodes[i]
		if n.Left < 0 {
			continue
		}
		for _, ch := range [2]int32{n.Left, n.Right} {
			if d := depth[i] + 1; d > depth[ch] {
				depth[ch] = d
				if d > best {
					best = d
				}
			}
		}
	}
	return best
}

// Distill fits a shallow CART tree on model's own labels over the (raw)
// corpus, flattens it into a Compiled program over the scaled feature space,
// calibrates the fallback margin so every corpus point the tree mislabels is
// routed back to the exact model, and gates installation on raw agreement and
// fallback rate. It returns the artifact without mutating model; callers
// install it by setting model.Compiled.
//
// The corpus should be the training set (or observation window) the model was
// fitted on — the same distribution the artifact will serve.
func Distill(model *Model, corpus [][]float64, opts DistillOptions) (*Compiled, error) {
	if model == nil || model.Classifier == nil {
		return nil, errors.New("ml: distill: nil model")
	}
	if len(corpus) == 0 {
		return nil, errors.New("ml: distill: empty corpus")
	}
	opts = opts.normalized()
	dim := len(corpus[0])
	if dim == 0 {
		return nil, errors.New("ml: distill: zero-dimensional corpus")
	}

	// Label the corpus with the exact model and scale it into the space the
	// artifact will run in.
	scaled := make([][]float64, len(corpus))
	labels := make([]int, len(corpus))
	for i, x := range corpus {
		if len(x) != dim {
			return nil, fmt.Errorf("ml: distill: corpus row %d has %d features, want %d", i, len(x), dim)
		}
		labels[i] = model.PredictExact(x)
		if model.Scaler != nil && model.Scaler.Fitted() {
			scaled[i] = model.Scaler.Transform(x)
		} else {
			scaled[i] = append([]float64(nil), x...)
		}
	}

	tree := NewDecisionTree(opts.MaxDepth, opts.MinLeaf)
	if err := tree.Fit(&Dataset{X: scaled, Y: labels}); err != nil {
		return nil, fmt.Errorf("ml: distill: %w", err)
	}

	c := &Compiled{
		Nodes:      flattenTree(tree),
		Classes:    append([]int(nil), tree.Classes()...),
		Dim:        dim,
		CorpusSize: len(corpus),
	}

	// Calibrate: the margin must exceed the walk margin of every corpus
	// disagreement, so each one reports ok=false and takes the exact path.
	agree := 0
	maxBadMargin := 0.0
	margins := make([]float64, len(scaled))
	for i, x := range scaled {
		class, margin := c.walk(x)
		margins[i] = margin
		if class == labels[i] {
			agree++
		} else if margin > maxBadMargin {
			maxBadMargin = margin
		}
	}
	c.Agreement = float64(agree) / float64(len(scaled))
	if c.Agreement < opts.MinAgreement {
		return nil, fmt.Errorf("%w: agreement %.4f < %.4f on %d-point corpus",
			ErrDistillRejected, c.Agreement, opts.MinAgreement, len(scaled))
	}
	c.Margin = math.Nextafter(maxBadMargin, math.Inf(1))
	if math.IsInf(c.Margin, 1) {
		// A disagreement sits on an infinite-margin path (degenerate program,
		// e.g. a single leaf): no finite margin can route it to the exact
		// model, so the artifact cannot be made safe.
		return nil, fmt.Errorf("%w: no finite margin routes corpus disagreements to the exact path",
			ErrDistillRejected)
	}
	fallbacks := 0
	for _, m := range margins {
		if m < c.Margin {
			fallbacks++
		}
	}
	c.FallbackRate = float64(fallbacks) / float64(len(scaled))
	if c.FallbackRate > opts.MaxFallbackRate {
		return nil, fmt.Errorf("%w: calibrated margin %.4g routes %.1f%% of corpus to exact path (cap %.1f%%)",
			ErrDistillRejected, c.Margin, 100*c.FallbackRate, 100*opts.MaxFallbackRate)
	}

	if opts.Grid && dim <= maxGridDim {
		c.Grid = buildGrid(c, scaled, opts.GridRes)
	}
	return c, nil
}

// flattenTree lowers a fitted CART tree into the forward-edge node array.
// Leaf class indices follow DecisionTree.Predict's argmax (first maximum
// wins), so the flattened program is decision-identical to the tree.
func flattenTree(t *DecisionTree) []CompiledNode {
	var nodes []CompiledNode
	var emit func(n *treeNode) int32
	emit = func(n *treeNode) int32 {
		id := int32(len(nodes))
		nodes = append(nodes, CompiledNode{Left: -1, Right: -1, Class: -1})
		if n.Left == nil { // leaf: same first-maximum argmax as DecisionTree.Predict
			best, bestC := 0, math.Inf(-1)
			for i, cnt := range n.Counts {
				if cnt > bestC {
					best, bestC = i, cnt
				}
			}
			nodes[id].Class = int32(best)
			return id
		}
		nodes[id].Feature = int32(n.Feature)
		nodes[id].Threshold = n.Threshold
		nodes[id].Left = emit(n.Left)
		nodes[id].Right = emit(n.Right)
		return id
	}
	emit(t.root)
	return nodes
}

// buildGrid precomputes the decision grid over a padded bounding box of the
// corpus. Each cell is resolved by a cell-aware walk: descend only while the
// whole cell range lies at least Margin clear of the split threshold; any
// ambiguity marks the cell walk-required (-1), so a grid hit is exactly
// equivalent to a confident tree walk.
func buildGrid(c *Compiled, corpus [][]float64, res int) *DecisionGrid {
	if len(c.Classes) > 127 { // cells are int8
		return nil
	}
	dim := c.Dim
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for j := 0; j < dim; j++ {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	for _, x := range corpus {
		for j, v := range x {
			lo[j] = math.Min(lo[j], v)
			hi[j] = math.Max(hi[j], v)
		}
	}
	for j := 0; j < dim; j++ {
		lo[j] -= gridPad
		hi[j] += gridPad
		if !(lo[j] < hi[j]) {
			return nil
		}
	}
	cells := 1
	for j := 0; j < dim; j++ {
		cells *= res
	}
	g := &DecisionGrid{Res: res, Lo: lo, Hi: hi, Cells: make([]int8, cells)}
	cellLo := make([]float64, dim)
	cellHi := make([]float64, dim)
	for idx := 0; idx < cells; idx++ {
		rem := idx
		for j := dim - 1; j >= 0; j-- {
			cell := rem % res
			rem /= res
			span := (hi[j] - lo[j]) / float64(res)
			cellLo[j] = lo[j] + float64(cell)*span
			cellHi[j] = cellLo[j] + span
		}
		g.Cells[idx] = int8(cellClass(c, cellLo, cellHi))
	}
	return g
}

// cellClass resolves the class index an axis-aligned cell maps to with Margin
// clearance at every split on its path, or -1 when the cell straddles (or
// comes within Margin of) any boundary.
func cellClass(c *Compiled, lo, hi []float64) int {
	i := 0
	for {
		n := &c.Nodes[i]
		if n.Left < 0 {
			return int(n.Class)
		}
		f := n.Feature
		switch {
		case hi[f] <= n.Threshold-c.Margin:
			// Every x in the cell has threshold - x[f] >= margin: safe left.
			i = int(n.Left)
		case lo[f] > n.Threshold+c.Margin:
			i = int(n.Right)
		default:
			return -1
		}
	}
}
