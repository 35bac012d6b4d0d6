package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks, without reordering xs; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + frac*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geoRatio accumulates a geometric mean of ratios in log space.
type geoRatio struct {
	logSum float64
	n      int
}

func (g *geoRatio) add(r float64) {
	g.logSum += math.Log(r)
	g.n++
}

func (g *geoRatio) merge(o geoRatio) {
	g.logSum += o.logSum
	g.n += o.n
}

func (g geoRatio) value() float64 {
	if g.n == 0 {
		return 0
	}
	return math.Exp(g.logSum / float64(g.n))
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func nowS() float64 { return float64(time.Now().UnixNano()) / 1e9 }

func secondsDur(s int) time.Duration { return time.Duration(s) * time.Second }

// window is one slice of a timed phase: the median and p90 of its latency
// samples and its operation rate.
type window struct{ p50, p90, rate float64 }

func windowOf(lat []float64, rate float64) window {
	return window{quantile(lat, 0.5), quantile(lat, 0.9), rate}
}

// medianWindow returns the median p50, p90 and rate over the windows of a
// phase. The host's speed drifts while a run goes on; the median window is
// the figure least moved by a stretch that ran fast or slow.
func medianWindow(ws []window) window {
	var p50, p90, rate []float64
	for _, w := range ws {
		p50, p90, rate = append(p50, w.p50), append(p90, w.p90), append(rate, w.rate)
	}
	return window{median(p50), median(p90), median(rate)}
}
