package ml

import (
	"errors"
	"fmt"
)

// Scaler rescales every feature to the range [-1, 1] from per-feature min/max
// statistics, exactly as the paper (and svm-scale) does before SVM training.
// Constant features map to 0. The zero value is unfitted; call Fit first.
type Scaler struct {
	Min []float64
	Max []float64
}

// Fit computes per-feature minima and maxima over the rows of x.
func (s *Scaler) Fit(x [][]float64) error {
	if len(x) == 0 {
		return errors.New("ml: cannot fit scaler on empty data")
	}
	d := len(x[0])
	s.Min = make([]float64, d)
	s.Max = make([]float64, d)
	copy(s.Min, x[0])
	copy(s.Max, x[0])
	for _, row := range x {
		if len(row) != d {
			return fmt.Errorf("ml: inconsistent row dim %d, want %d", len(row), d)
		}
		for j, v := range row {
			if v < s.Min[j] {
				s.Min[j] = v
			}
			if v > s.Max[j] {
				s.Max[j] = v
			}
		}
	}
	return nil
}

// Fitted reports whether Fit has been called.
func (s *Scaler) Fitted() bool { return len(s.Min) > 0 }

// checkDim panics unless x matches the fitted width. Transform/Inverse used
// to silently truncate (extra features dropped) or zero-fill (missing
// features mapped to the mid-range) on mismatch, feeding wrong-width vectors
// straight into the SVM — a model-corrupting bug class that must fail loudly
// at the boundary, not statistically downstream.
func (s *Scaler) checkDim(op string, x []float64) {
	if !s.Fitted() {
		panic(fmt.Sprintf("ml: Scaler.%s on unfitted scaler (call Fit first)", op))
	}
	if len(x) != len(s.Min) {
		panic(fmt.Sprintf("ml: Scaler.%s dimension mismatch: vector has %d features, scaler fitted on %d", op, len(x), len(s.Min)))
	}
}

// Transform maps one feature vector into [-1, 1] per feature. Values outside
// the fitted range extrapolate linearly (they are not clamped), mirroring
// svm-scale behaviour on unseen test data. It panics when the vector's width
// does not match the fitted dimension.
func (s *Scaler) Transform(x []float64) []float64 {
	s.checkDim("Transform", x)
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = s.scaleOne(j, v)
	}
	return out
}

// scaleOne maps one feature value into [-1, 1] — the single-element core
// shared by Transform/TransformInto and the lazy compiled-dispatch walk, so
// element-at-a-time scaling is bit-identical to a full transform.
func (s *Scaler) scaleOne(j int, v float64) float64 {
	span := s.Max[j] - s.Min[j]
	if span == 0 {
		return 0
	}
	return 2*(v-s.Min[j])/span - 1
}

// TransformInto is Transform writing into a caller-provided buffer — the
// allocation-free variant the dispatch hot path uses. dst must have the same
// length as x; it may alias x.
func (s *Scaler) TransformInto(dst, x []float64) {
	s.checkDim("TransformInto", x)
	if len(dst) != len(x) {
		panic(fmt.Sprintf("ml: Scaler.TransformInto dst has %d features, want %d", len(dst), len(x)))
	}
	for j, v := range x {
		dst[j] = s.scaleOne(j, v)
	}
}

// TransformAll maps a whole design matrix.
func (s *Scaler) TransformAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = s.Transform(row)
	}
	return out
}

// FitTransform fits on x and returns the transformed matrix.
func (s *Scaler) FitTransform(x [][]float64) ([][]float64, error) {
	if err := s.Fit(x); err != nil {
		return nil, err
	}
	return s.TransformAll(x), nil
}

// Inverse maps a scaled vector back to the original feature space, for
// diagnostics and round-trip tests. Like Transform it panics on a
// dimension mismatch rather than truncating or zero-filling.
func (s *Scaler) Inverse(x []float64) []float64 {
	s.checkDim("Inverse", x)
	out := make([]float64, len(x))
	for j, v := range x {
		span := s.Max[j] - s.Min[j]
		out[j] = s.Min[j] + (v+1)/2*span
	}
	return out
}
