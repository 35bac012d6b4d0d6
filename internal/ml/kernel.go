package ml

import "math"

// Kernel is a positive-semidefinite similarity function between feature
// vectors, used by the SVM.
type Kernel interface {
	// Eval returns K(a, b).
	Eval(a, b []float64) float64
	// Name identifies the kernel for serialization.
	Name() string
}

// RBFKernel is the radial-basis-function (Gaussian) kernel
// K(a,b) = exp(-gamma * ||a-b||^2), the paper's default.
type RBFKernel struct {
	Gamma float64
}

// Eval implements Kernel.
func (k RBFKernel) Eval(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		diff := a[i] - b[i]
		d2 += diff * diff
	}
	return math.Exp(-k.Gamma * d2)
}

// Name implements Kernel.
func (k RBFKernel) Name() string { return "rbf" }

// LinearKernel is K(a,b) = a . b.
type LinearKernel struct{}

// Eval implements Kernel.
func (LinearKernel) Eval(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Name implements Kernel.
func (LinearKernel) Name() string { return "linear" }

// PolyKernel is K(a,b) = (gamma * a.b + coef0)^degree.
type PolyKernel struct {
	Gamma  float64
	Coef0  float64
	Degree int
}

// Eval implements Kernel.
func (k PolyKernel) Eval(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return math.Pow(k.Gamma*s+k.Coef0, float64(k.Degree))
}

// Name implements Kernel.
func (k PolyKernel) Name() string { return "poly" }
