package ml

import (
	"errors"
	"math"
)

// Logistic is a multinomial (softmax) logistic-regression classifier trained
// by full-batch gradient descent with L2 regularization. It is deterministic
// (zero initialization, fixed iteration count) and provides calibrated
// per-class probabilities, making it a natural alternate for Nitro's
// pluggable-classifier option and for Best-vs-Second-Best margins.
type Logistic struct {
	// LR is the gradient-descent step size (default 0.5).
	LR float64
	// L2 is the ridge penalty (default 1e-3).
	L2 float64
	// Iters is the gradient-step count (default 500).
	Iters int

	W       [][]float64 // classes x (dim+1), bias last
	classes []int
}

// NewLogistic returns an untrained softmax classifier with defaults for any
// non-positive parameter.
func NewLogistic(lr, l2 float64, iters int) *Logistic {
	if lr <= 0 {
		lr = 0.5
	}
	if l2 <= 0 {
		l2 = 1e-3
	}
	if iters <= 0 {
		iters = 500
	}
	return &Logistic{LR: lr, L2: l2, Iters: iters}
}

// Name implements Classifier.
func (m *Logistic) Name() string { return "logistic" }

// Classes implements Classifier.
func (m *Logistic) Classes() []int { return m.classes }

// Fit implements Classifier.
func (m *Logistic) Fit(ds *Dataset) error {
	if ds == nil || ds.Len() == 0 {
		return errors.New("ml: empty training set")
	}
	m.classes = ds.Classes()
	k, d, n := len(m.classes), ds.Dim(), ds.Len()
	idx := make(map[int]int, k)
	for i, c := range m.classes {
		idx[c] = i
	}
	m.W = make([][]float64, k)
	for c := range m.W {
		m.W[c] = make([]float64, d+1)
	}
	if k == 1 {
		return nil
	}
	probs := make([]float64, k)
	grad := make([][]float64, k)
	for c := range grad {
		grad[c] = make([]float64, d+1)
	}
	for it := 0; it < m.Iters; it++ {
		for c := range grad {
			for j := range grad[c] {
				grad[c][j] = m.L2 * m.W[c][j]
			}
		}
		for i := 0; i < n; i++ {
			m.softmax(ds.X[i], probs)
			yi := idx[ds.Y[i]]
			for c := 0; c < k; c++ {
				delta := probs[c]
				if c == yi {
					delta -= 1
				}
				for j := 0; j < d; j++ {
					grad[c][j] += delta * ds.X[i][j] / float64(n)
				}
				grad[c][d] += delta / float64(n)
			}
		}
		for c := 0; c < k; c++ {
			for j := 0; j <= d; j++ {
				m.W[c][j] -= m.LR * grad[c][j]
			}
		}
	}
	return nil
}

func (m *Logistic) softmax(x []float64, out []float64) {
	maxZ := math.Inf(-1)
	for c := range m.W {
		z := m.W[c][len(m.W[c])-1]
		for j := 0; j < len(x) && j < len(m.W[c])-1; j++ {
			z += m.W[c][j] * x[j]
		}
		out[c] = z
		if z > maxZ {
			maxZ = z
		}
	}
	var sum float64
	for c := range out {
		out[c] = math.Exp(out[c] - maxZ)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
}

// Predict implements Classifier.
func (m *Logistic) Predict(x []float64) int {
	if len(m.classes) == 0 {
		return 0
	}
	s := m.Scores(x)
	best, bestS := 0, math.Inf(-1)
	for c, v := range s {
		if v > bestS {
			best, bestS = c, v
		}
	}
	return m.classes[best]
}

// Scores implements Classifier: softmax probabilities.
func (m *Logistic) Scores(x []float64) []float64 {
	out := make([]float64, len(m.classes))
	if len(m.classes) == 0 {
		return out
	}
	if len(m.classes) == 1 {
		out[0] = 1
		return out
	}
	m.softmax(x, out)
	return out
}

// Confusion is a confusion matrix over a label set.
type Confusion struct {
	Classes []int
	// Counts[i][j] counts examples of true class Classes[i] predicted as
	// Classes[j].
	Counts [][]int
}

// ConfusionMatrix evaluates clf on ds. Labels absent from the classifier's
// training set still get rows/columns.
func ConfusionMatrix(clf Classifier, ds *Dataset) Confusion {
	seen := map[int]bool{}
	for _, c := range clf.Classes() {
		seen[c] = true
	}
	for _, y := range ds.Y {
		seen[y] = true
	}
	var classes []int
	for c := range seen {
		classes = append(classes, c)
	}
	// Deterministic order.
	for i := 0; i < len(classes); i++ {
		for j := i + 1; j < len(classes); j++ {
			if classes[j] < classes[i] {
				classes[i], classes[j] = classes[j], classes[i]
			}
		}
	}
	idx := make(map[int]int, len(classes))
	for i, c := range classes {
		idx[c] = i
	}
	cm := Confusion{Classes: classes, Counts: make([][]int, len(classes))}
	for i := range cm.Counts {
		cm.Counts[i] = make([]int, len(classes))
	}
	for i, x := range ds.X {
		pred := clf.Predict(x)
		if _, ok := idx[pred]; !ok {
			continue
		}
		cm.Counts[idx[ds.Y[i]]][idx[pred]]++
	}
	return cm
}

// Accuracy returns the trace fraction.
func (c Confusion) Accuracy() float64 {
	total, diag := 0, 0
	for i := range c.Counts {
		for j, v := range c.Counts[i] {
			total += v
			if i == j {
				diag += v
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(diag) / float64(total)
}

// Recall returns per-class recall aligned with Classes (0 where a class has
// no examples).
func (c Confusion) Recall() []float64 {
	out := make([]float64, len(c.Classes))
	for i := range c.Counts {
		row := 0
		for _, v := range c.Counts[i] {
			row += v
		}
		if row > 0 {
			out[i] = float64(c.Counts[i][i]) / float64(row)
		}
	}
	return out
}
