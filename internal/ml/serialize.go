package ml

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// ModelMeta stamps a trained model with its provenance, so deployment logs,
// statistics and hot-swap events can attribute which model served a call.
// Artifacts without a meta section deserialize with a nil Meta.
type ModelMeta struct {
	// Version is a monotonically increasing model generation: 1 for the
	// first offline tuning, incremented by every accepted retrain.
	Version int `json:"version"`
	// CreatedAt records when the model was fitted (UTC). The offline tuner
	// leaves it zero so identical inputs produce byte-identical artifacts;
	// the online retrainer stamps wall-clock time.
	CreatedAt time.Time `json:"created_at"`
	// TrainedOn counts the labelled instances the classifier was fitted on.
	TrainedOn int `json:"trained_on"`
}

// Model is the serializable envelope Nitro persists after tuning: the fitted
// classifier plus the feature scaler, so deployment-time selection needs no
// retraining. It replaces the paper's generated C++ header + libSVM model
// file pair.
type Model struct {
	Classifier Classifier
	Scaler     *Scaler
	// Meta optionally stamps the model's provenance (version, creation time,
	// training-set size); nil for unstamped models.
	Meta *ModelMeta
	// Compiled is the optional distilled fast-dispatch artifact (see Distill).
	// When present, Predict routes confident calls through it and falls back
	// to the exact classifier near decision boundaries. Like the classifier,
	// it is written only at distill/deserialization time and read-only
	// afterwards, so a fitted Model stays safe for concurrent prediction.
	Compiled *Compiled
}

// Version returns the stamped model generation, or 0 when unstamped.
func (m *Model) Version() int {
	if m == nil || m.Meta == nil {
		return 0
	}
	return m.Meta.Version
}

// Predict scales x (if a scaler is present) and classifies it, routing
// through the compiled artifact when one is installed and confident; see
// PredictTier for the tier-reporting variant.
func (m *Model) Predict(x []float64) int {
	pred, _ := m.PredictTier(x)
	return pred
}

// Scores scales x and returns the per-class confidences.
func (m *Model) Scores(x []float64) []float64 {
	if m.Scaler != nil && m.Scaler.Fitted() {
		x = m.Scaler.Transform(x)
	}
	return m.Classifier.Scores(x)
}

// Model artifact format, version 1. Every integer is little-endian.
//
//	header     8-byte magic "NITROMDL", u32 format version
//	meta       u32 length; i64 version, i64 created-at Unix seconds,
//	           u32 created-at nanoseconds, i64 trained-on count
//	scaler     u32 length; f64s min, f64s max
//	classifier u32 length; u8 kind, then the kind's body
//	compiled   u32 length; the distilled program and its optional grid
//
// A zero-length meta, scaler or compiled section means the model has none;
// the classifier section is required. f64s and ints are a u32 count followed
// by that many f64 or i64 values; a matrix is u32 rows, u32 columns and the
// values row-major. Ints are stored as i64 and CreatedAt as UTC, so the zero
// time round-trips. Nothing in the encoding depends on map order, addresses
// or the clock: the same model always yields the same bytes, and so the same
// ETag. The decoder checks every count against the bytes left before
// allocating, rejects trailing bytes and non-finite floats, and refuses the
// JSON artifacts earlier versions wrote with ErrLegacyJSONModel.
const (
	artifactMagic   = "NITROMDL"
	artifactVersion = 1
)

// Classifier kinds, the first byte of the classifier section.
const (
	kindSVM byte = 1 + iota
	kindKNN
	kindTree
	kindLogistic
	kindEnsemble
)

var kindNames = [...]string{kindSVM: "svm", kindKNN: "knn", kindTree: "tree", kindLogistic: "logistic", kindEnsemble: "ensemble"}

// Kernel kinds inside an SVM body.
const (
	kernelRBF byte = 1 + iota
	kernelLinear
	kernelPoly
)

// ErrLegacyJSONModel rejects the indented-JSON model files written before
// the binary artifact format. There is no JSON reader: re-tune the model or
// re-push it with this version.
var ErrLegacyJSONModel = errors.New("ml: legacy JSON model artifact; re-tune/re-push with this version")

// MarshalModel serializes a fitted model (SVM, KNN, DecisionTree, Logistic or
// Ensemble) with its scaler, provenance and compiled program into the binary
// artifact format. It fails on non-finite floats, which no artifact carries.
func MarshalModel(m *Model) ([]byte, error) {
	if m == nil || m.Classifier == nil {
		return nil, fmt.Errorf("ml: nil model")
	}
	e := &encoder{b: make([]byte, 0, 1024)}
	e.b = append(e.b, artifactMagic...)
	e.u32(artifactVersion)
	e.section(func() {
		if meta := m.Meta; meta != nil {
			e.int(meta.Version)
			e.i64(meta.CreatedAt.Unix())
			e.u32(uint32(meta.CreatedAt.Nanosecond()))
			e.int(meta.TrainedOn)
		}
	})
	e.section(func() {
		if s := m.Scaler; s != nil {
			e.f64s(s.Min)
			e.f64s(s.Max)
		}
	})
	e.section(func() { encodeClassifier(e, m.Classifier, false) })
	e.section(func() {
		if m.Compiled != nil {
			encodeCompiled(e, m.Compiled)
		}
	})
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

// UnmarshalModel reconstructs a model serialized by MarshalModel. It is
// total: arbitrary bytes yield a model or an error, never a panic.
func UnmarshalModel(data []byte) (*Model, error) {
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '{' {
		return nil, ErrLegacyJSONModel
	}
	if len(data) < len(artifactMagic)+4 || string(data[:len(artifactMagic)]) != artifactMagic {
		return nil, errors.New("ml: not a model artifact (bad magic)")
	}
	d := &decoder{b: data[len(artifactMagic):]}
	if v := d.u32(); v != artifactVersion {
		return nil, fmt.Errorf("ml: unsupported model artifact version %d (want %d)", v, artifactVersion)
	}
	m := &Model{}
	d.section("meta", func(s *decoder) {
		meta := &ModelMeta{Version: s.int()}
		sec, nsec := s.i64(), s.u32()
		if nsec >= 1e9 {
			s.fail("ml: meta created-at nanoseconds %d out of range", nsec)
		}
		meta.CreatedAt = time.Unix(sec, int64(nsec)).UTC()
		meta.TrainedOn = s.int()
		m.Meta = meta
	})
	d.section("scaler", func(s *decoder) {
		m.Scaler = &Scaler{Min: s.f64s(), Max: s.f64s()}
	})
	d.section("classifier", func(s *decoder) { m.Classifier = decodeClassifier(s, false) })
	d.section("compiled", func(s *decoder) { m.Compiled = decodeCompiled(s) })
	d.finish("model artifact")
	if d.err != nil {
		return nil, d.err
	}
	if m.Classifier == nil {
		return nil, errors.New("ml: model artifact has no classifier")
	}
	if m.Compiled != nil {
		// A compiled artifact is a little interpreted program; validate the
		// structure (forward edges, index bounds) so a corrupted or hostile
		// file cannot make the dispatch hot loop read out of bounds or spin.
		if err := m.Compiled.Validate(); err != nil {
			return nil, fmt.Errorf("ml: bad compiled artifact: %w", err)
		}
	}
	return m, nil
}

// encodeClassifier writes c's kind byte and body. Ensemble members recurse
// one level only, each in its own length-prefixed section.
func encodeClassifier(e *encoder, c Classifier, nested bool) {
	switch c := c.(type) {
	case *SVM:
		e.u8(kindSVM)
		encodeSVM(e, c)
	case *KNN:
		e.u8(kindKNN)
		e.int(c.K)
		e.ints(c.classes)
		var train Dataset
		if c.train != nil {
			train = *c.train
		}
		if len(train.X) != len(train.Y) {
			e.fail(fmt.Errorf("ml: knn train set has %d rows but %d labels", len(train.X), len(train.Y)))
			return
		}
		e.rows(train.X)
		for _, y := range train.Y {
			e.int(y)
		}
	case *DecisionTree:
		e.u8(kindTree)
		e.int(c.MaxDepth)
		e.int(c.MinLeafSamples)
		e.ints(c.classes)
		encodeTree(e, c.root)
	case *Logistic:
		e.u8(kindLogistic)
		e.f64(c.LR)
		e.f64(c.L2)
		e.int(c.Iters)
		e.ints(c.classes)
		e.rows(c.W)
	case *Ensemble:
		if nested {
			e.fail(ErrNestedEnsemble)
			return
		}
		e.u8(kindEnsemble)
		e.int(c.Folds)
		e.i64(c.Seed)
		e.ints(c.classes)
		e.f64s(c.weights)
		e.count(len(c.calib))
		for _, b := range c.calib {
			e.f64(b.Lo)
			e.f64(b.Hi)
			e.int(b.N)
			e.int(b.Correct)
		}
		e.count(len(c.members))
		for _, member := range c.members {
			e.section(func() { encodeClassifier(e, member, true) })
		}
	case nil:
		e.fail(errors.New("ml: nil classifier"))
	default:
		e.fail(fmt.Errorf("ml: cannot serialize classifier kind %q", c.Name()))
	}
}

// decodeClassifier reads what encodeClassifier wrote. Corrupt ensemble
// members surface as errors naming the member, never panics.
func decodeClassifier(d *decoder, nested bool) Classifier {
	kind := d.u8()
	if d.err != nil {
		return nil
	}
	if int(kind) >= len(kindNames) || kindNames[kind] == "" {
		d.fail("ml: unknown model kind %d", kind)
		return nil
	}
	if kind == kindEnsemble && nested {
		d.err = ErrNestedEnsemble
		return nil
	}
	if len(d.b) == 0 {
		d.fail("ml: %s model missing body", kindNames[kind])
		return nil
	}
	switch kind {
	case kindSVM:
		return decodeSVM(d)
	case kindKNN:
		knn := NewKNN(d.int())
		knn.classes = d.ints()
		x := d.rows()
		y := make([]int, d.countOf(len(x), 8))
		for i := range y {
			y[i] = d.int()
		}
		knn.train = &Dataset{X: x, Y: y}
		return knn
	case kindTree:
		t := NewDecisionTree(d.int(), d.int())
		t.classes = d.ints()
		t.root = decodeTree(d)
		return t
	case kindLogistic:
		l := NewLogistic(d.f64(), d.f64(), d.int())
		l.classes = d.ints()
		l.W = d.rows()
		return l
	default: // kindEnsemble
		e := &Ensemble{Folds: d.int(), Seed: d.i64(), classes: d.ints(), weights: d.f64s()}
		if n := d.count(32); n > 0 {
			e.calib = make([]CalibBin, n)
			for i := range e.calib {
				e.calib[i] = CalibBin{Lo: d.f64(), Hi: d.f64(), N: d.int(), Correct: d.int()}
			}
		}
		n := d.count(4)
		if d.err != nil {
			return nil
		}
		if n == 0 {
			d.fail("ml: ensemble has no members")
			return nil
		}
		if len(e.weights) != 0 && len(e.weights) != n {
			d.fail("ml: ensemble has %d members but %d weights", n, len(e.weights))
			return nil
		}
		e.members = make([]Classifier, n)
		for i := range e.members {
			d.section("ensemble member", func(s *decoder) { e.members[i] = decodeClassifier(s, true) })
			if d.err != nil {
				d.err = fmt.Errorf("ml: ensemble member %d: %w", i, d.err)
				return nil
			}
			if e.members[i] == nil {
				d.fail("ml: ensemble member %d is empty", i)
				return nil
			}
		}
		return e
	}
}

// encodeSVM stores the distinct support vectors once, then each one-vs-one
// pair as (row id, coefficient) entries: pairs share most of their support
// vectors, and the decoder rebuilds the shared kernel-evaluation table
// directly instead of re-deduplicating by content.
func encodeSVM(e *encoder, m *SVM) {
	e.f64(m.C)
	switch k := m.kernel.(type) {
	case RBFKernel:
		e.u8(kernelRBF)
		e.f64(k.Gamma)
	case LinearKernel:
		e.u8(kernelLinear)
	case PolyKernel:
		e.u8(kernelPoly)
		e.f64(k.Gamma)
		e.f64(k.Coef0)
		e.int(k.Degree)
	case nil:
		e.fail(errors.New("ml: svm has no kernel"))
		return
	default:
		e.fail(fmt.Errorf("ml: cannot serialize kernel %q", k.Name()))
		return
	}
	e.ints(m.classes)
	rows, ids := supportTable(m.pairs)
	e.rows(rows)
	e.count(len(m.pairs))
	for i, p := range m.pairs {
		if len(p.sol.svCoef) != len(p.sol.svX) {
			e.fail(fmt.Errorf("ml: svm pair %d has %d coefficients for %d support vectors", i, len(p.sol.svCoef), len(p.sol.svX)))
			return
		}
		e.int(p.a)
		e.int(p.b)
		e.f64(p.sol.rho)
		e.int(p.sol.iters)
		e.count(len(ids[i]))
		for s, id := range ids[i] {
			e.u32(uint32(id))
			e.f64(p.sol.svCoef[s])
		}
	}
}

func decodeSVM(d *decoder) *SVM {
	c := d.f64()
	var k Kernel
	switch kind := d.u8(); kind {
	case kernelRBF:
		k = RBFKernel{Gamma: d.f64()}
	case kernelLinear:
		k = LinearKernel{}
	case kernelPoly:
		k = PolyKernel{Gamma: d.f64(), Coef0: d.f64(), Degree: d.int()}
	default:
		d.fail("ml: unknown kernel kind %d", kind)
		return nil
	}
	m := NewSVM(k, c)
	m.classes = d.ints()
	m.svRows = d.rows()
	m.pairs = make([]svmPair, d.count(4*8+4))
	for i := range m.pairs {
		p := svmPair{a: d.int(), b: d.int(), sol: &smoResult{rho: d.f64(), iters: d.int()}}
		n := d.count(12)
		p.svID = make([]int, n)
		p.sol.svX = make([][]float64, n)
		p.sol.svCoef = make([]float64, n)
		for s := 0; s < n; s++ {
			id := int(d.u32())
			if id >= len(m.svRows) {
				d.fail("ml: svm pair %d: support vector %d out of range", i, id)
				return nil
			}
			p.svID[s], p.sol.svX[s], p.sol.svCoef[s] = id, m.svRows[id], d.f64()
		}
		m.pairs[i] = p
	}
	if d.err != nil {
		return nil
	}
	if len(m.pairs) == 0 {
		m.pairs = nil
	}
	m.buildClassIndex()
	return m
}

// supportTable deduplicates the pairs' support vectors by content, in
// first-appearance order, returning the distinct rows and each pair's row
// ids. Content (not training-row) identity makes the table canonical, so a
// decoded model re-encodes to the same bytes.
func supportTable(pairs []svmPair) ([][]float64, [][]int) {
	var rows [][]float64
	ids := make([][]int, len(pairs))
	seen := make(map[string]int)
	var key []byte
	for i, p := range pairs {
		ids[i] = make([]int, len(p.sol.svX))
		for s, sv := range p.sol.svX {
			key = key[:0]
			for _, v := range sv {
				key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
			}
			id, ok := seen[string(key)]
			if !ok {
				id = len(rows)
				rows = append(rows, sv)
				seen[string(key)] = id
			}
			ids[i][s] = id
		}
	}
	return rows, ids
}

// encodeTree writes the tree's nodes in preorder: a u32 node count (0 for
// an unfitted tree), then per node i64 feature, f64 threshold, i32 left and
// right child indices (-1 for none) and f64s leaf counts.
func encodeTree(e *encoder, root *treeNode) {
	var order []*treeNode
	for stack := []*treeNode{root}; len(stack) > 0; {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == nil {
			continue
		}
		order = append(order, n)
		stack = append(stack, n.Right, n.Left)
	}
	index := make(map[*treeNode]int32, len(order))
	for i, n := range order {
		index[n] = int32(i)
	}
	child := func(n *treeNode) int32 {
		if n == nil {
			return -1
		}
		return index[n]
	}
	e.count(len(order))
	for _, n := range order {
		e.int(n.Feature)
		e.f64(n.Threshold)
		e.i32(child(n.Left))
		e.i32(child(n.Right))
		e.f64s(n.Counts)
	}
}

// decodeTree rebuilds the tree encodeTree wrote. Every child index must
// point forward and in range, and every node but the root must have exactly
// one parent, so the nodes form one tree (no cycles, no sharing, no
// orphans) whatever the input bytes.
func decodeTree(d *decoder) *treeNode {
	nodes := make([]treeNode, d.count(8+8+4+4+4))
	parented := make([]bool, len(nodes))
	link := func(i int, c int32) *treeNode {
		if c == -1 {
			return nil
		}
		if c <= int32(i) || int(c) >= len(nodes) || parented[c] {
			d.fail("ml: tree node %d: child %d is not a fresh forward edge", i, c)
			return nil
		}
		parented[c] = true
		return &nodes[c]
	}
	for i := range nodes {
		n := &nodes[i]
		n.Feature, n.Threshold = d.int(), d.f64()
		n.Left = link(i, d.i32())
		n.Right = link(i, d.i32())
		n.Counts = d.f64s()
		if d.err != nil {
			return nil
		}
	}
	for i := 1; i < len(nodes); i++ {
		if !parented[i] {
			d.fail("ml: tree node %d is unreachable", i)
			return nil
		}
	}
	if len(nodes) == 0 {
		return nil
	}
	return &nodes[0]
}

// encodeCompiled writes the distilled program: calibration scalars, class
// labels, nodes as (i32 feature, left, right, class, f64 threshold), then a
// u8 grid flag and, when set, the grid's resolution, corners and cells.
func encodeCompiled(e *encoder, c *Compiled) {
	e.int(c.Dim)
	e.f64(c.Margin)
	e.f64(c.Agreement)
	e.f64(c.FallbackRate)
	e.int(c.CorpusSize)
	e.ints(c.Classes)
	e.count(len(c.Nodes))
	for _, n := range c.Nodes {
		e.i32(n.Feature)
		e.i32(n.Left)
		e.i32(n.Right)
		e.i32(n.Class)
		e.f64(n.Threshold)
	}
	g := c.Grid
	if g == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.int(g.Res)
	e.f64s(g.Lo)
	e.f64s(g.Hi)
	e.count(len(g.Cells))
	for _, v := range g.Cells {
		e.u8(uint8(v))
	}
}

// decodeCompiled reads what encodeCompiled wrote; UnmarshalModel validates
// the result.
func decodeCompiled(d *decoder) *Compiled {
	c := &Compiled{Dim: d.int(), Margin: d.f64(), Agreement: d.f64(), FallbackRate: d.f64(), CorpusSize: d.int()}
	c.Classes = d.ints()
	if n := d.count(4*4 + 8); n > 0 {
		c.Nodes = make([]CompiledNode, n)
		for i := range c.Nodes {
			c.Nodes[i] = CompiledNode{Feature: d.i32(), Left: d.i32(), Right: d.i32(), Class: d.i32(), Threshold: d.f64()}
		}
	}
	switch flag := d.u8(); flag {
	case 0:
	case 1:
		g := &DecisionGrid{Res: d.int(), Lo: d.f64s(), Hi: d.f64s()}
		if cells := d.take(d.count(1)); len(cells) > 0 {
			g.Cells = make([]int8, len(cells))
			for i, v := range cells {
				g.Cells[i] = int8(v)
			}
		}
		c.Grid = g
	default:
		d.fail("ml: compiled grid flag %d invalid", flag)
	}
	return c
}

// encoder appends the little-endian artifact encoding to b. The first
// failure sticks in err, and MarshalModel then returns it instead of b.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *encoder) u8(v uint8)   { e.b = append(e.b, v) }
func (e *encoder) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encoder) i32(v int32)  { e.u32(uint32(v)) }
func (e *encoder) i64(v int64)  { e.b = binary.LittleEndian.AppendUint64(e.b, uint64(v)) }
func (e *encoder) int(v int)    { e.i64(int64(v)) }

func (e *encoder) f64(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.fail(fmt.Errorf("ml: cannot serialize non-finite value %v", v))
	}
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

func (e *encoder) count(n int) {
	if n > math.MaxUint32 {
		e.fail(fmt.Errorf("ml: %d elements exceed the artifact format", n))
	}
	e.u32(uint32(n))
}

func (e *encoder) f64s(v []float64) {
	e.count(len(v))
	for _, x := range v {
		e.f64(x)
	}
}

func (e *encoder) ints(v []int) {
	e.count(len(v))
	for _, x := range v {
		e.int(x)
	}
}

// rows writes a rectangular matrix as u32 rows, u32 columns and the values
// row-major.
func (e *encoder) rows(m [][]float64) {
	cols := 0
	if len(m) > 0 {
		cols = len(m[0])
		if cols == 0 {
			e.fail(errors.New("ml: matrix rows have no columns"))
			return
		}
	}
	e.count(len(m))
	e.count(cols)
	for _, r := range m {
		if len(r) != cols {
			e.fail(fmt.Errorf("ml: ragged matrix: row of %d values, want %d", len(r), cols))
			return
		}
		for _, x := range r {
			e.f64(x)
		}
	}
}

// section writes a u32 length prefix, runs body, then patches the length.
func (e *encoder) section(body func()) {
	at := len(e.b)
	e.u32(0)
	body()
	n := len(e.b) - at - 4
	if n > math.MaxUint32 {
		e.fail(fmt.Errorf("ml: %d-byte section exceeds the artifact format", n))
		return
	}
	binary.LittleEndian.PutUint32(e.b[at:], uint32(n))
}

// decoder reads the artifact encoding from b. The first failure sticks in
// err; later reads return zero values without touching b, so parsing code
// can read a whole structure and check err once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// take consumes the next n bytes, or fails when fewer remain.
func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b) {
		d.fail("ml: truncated model artifact: need %d bytes, %d left", n, len(d.b))
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) u8() uint8 {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *decoder) u32() uint32 {
	if p := d.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *decoder) i32() int32 { return int32(d.u32()) }

func (d *decoder) i64() int64 {
	if p := d.take(8); p != nil {
		return int64(binary.LittleEndian.Uint64(p))
	}
	return 0
}

func (d *decoder) int() int {
	v := d.i64()
	if int64(int(v)) != v {
		d.fail("ml: integer %d overflows int", v)
		return 0
	}
	return int(v)
}

func (d *decoder) f64() float64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(p))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.fail("ml: non-finite value %v in model artifact", v)
		return 0
	}
	return v
}

// count reads a u32 element count and checks that count elements of at
// least elem bytes each fit in the bytes left — before anything is
// allocated for them.
func (d *decoder) count(elem int) int {
	return d.countOf(int(d.u32()), elem)
}

// countOf checks an element count taken from elsewhere in the artifact
// against the bytes left.
func (d *decoder) countOf(n, elem int) int {
	if d.err != nil {
		return 0
	}
	if n > len(d.b)/elem {
		d.fail("ml: truncated model artifact: %d elements of %d bytes, %d bytes left", n, elem, len(d.b))
		return 0
	}
	return n
}

func (d *decoder) f64s() []float64 {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *decoder) ints() []int {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.int()
	}
	return out
}

// rows reads what encoder.rows wrote into one backing array; each row is
// capacity-clipped so appending to it cannot clobber its neighbour.
func (d *decoder) rows() [][]float64 {
	n, cols := int(d.u32()), int(d.u32())
	if d.err != nil {
		return nil
	}
	if (n == 0) != (cols == 0) {
		d.fail("ml: malformed %dx%d matrix", n, cols)
		return nil
	}
	if n == 0 || d.countOf(n, 8*cols) == 0 {
		return nil
	}
	flat := make([]float64, n*cols)
	for i := range flat {
		flat[i] = d.f64()
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return out
}

// section reads a u32 length prefix and runs parse over exactly that many
// bytes; a zero-length section is absent and parse does not run. Bytes
// parse leaves unread are an error.
func (d *decoder) section(what string, parse func(*decoder)) {
	n := int(d.u32())
	body := d.take(n)
	if d.err != nil || n == 0 {
		return
	}
	s := &decoder{b: body}
	parse(s)
	s.finish(what)
	d.err = s.err
}

// finish fails when bytes remain unread.
func (d *decoder) finish(what string) {
	if d.err == nil && len(d.b) != 0 {
		d.fail("ml: %d trailing bytes after %s", len(d.b), what)
	}
}
