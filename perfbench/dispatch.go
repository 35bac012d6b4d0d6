package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"nitro/internal/autotuner"
	"nitro/internal/core"
	"nitro/internal/ml"
)

// blockCalls is the number of calls timed as one latency sample. Timing a
// block instead of a single call keeps the clock reads out of the figure
// for calls that take ~100 ns.
const blockCalls = 64

// replayCall is one input bound to one of the five tuned functions.
type replayCall struct {
	fn   int
	in   autotuner.Instance
	best float64
}

// replaySet is the five tuned functions served as replay CodeVariants in
// one Context: each variant returns the input's recorded cost, so the call
// overhead is the whole cost of a call.
type replaySet struct {
	cx    *core.Context
	cvs   []*core.CodeVariant[autotuner.Instance]
	names []string
	// variantIdx maps a function's variant names to their index.
	variantIdx []map[string]int
}

// newReplaySet builds the replay CodeVariants. With models set it installs
// each tuned (distilled) model; without, every call takes the default
// variant.
func newReplaySet(tu *tuned, models bool) (*replaySet, error) {
	rs := &replaySet{cx: core.NewContext()}
	for i, s := range tu.suites {
		var m *ml.Model
		if models {
			m = tu.models[i]
		}
		if _, err := rs.add(s, m); err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// add binds one suite's replay CodeVariant to the set's Context and
// installs model when it is not nil.
func (rs *replaySet) add(s *autotuner.Suite, model *ml.Model) (*core.CodeVariant[autotuner.Instance], error) {
	cv, err := autotuner.ReplayVariant(rs.cx, s, core.DefaultPolicy(s.Name))
	if err != nil {
		return nil, err
	}
	if model != nil {
		if err := rs.cx.SetModel(s.Name, model); err != nil {
			return nil, err
		}
	}
	idx := map[string]int{}
	for vi, name := range s.VariantNames {
		idx[name] = vi
	}
	rs.cvs = append(rs.cvs, cv)
	rs.names = append(rs.names, s.Name)
	rs.variantIdx = append(rs.variantIdx, idx)
	return cv, nil
}

// check verifies one call's output: it must be the chosen variant's replay
// value, and the chosen variant must pass its constraint (a finite cost).
func (rs *replaySet) check(fn int, in autotuner.Instance, v float64, name string, err error) error {
	if err != nil {
		return fmt.Errorf("%s: call failed: %w", rs.names[fn], err)
	}
	vi, ok := rs.variantIdx[fn][name]
	if !ok {
		return fmt.Errorf("%s: unknown variant %q chosen", rs.names[fn], name)
	}
	if math.IsInf(in.Times[vi], 1) {
		return fmt.Errorf("%s: chosen variant %q fails its constraint on %s", rs.names[fn], name, in.ID)
	}
	if v != in.Times[vi] {
		return fmt.Errorf("%s: call returned %g, variant %q replays %g", rs.names[fn], v, name, in.Times[vi])
	}
	return nil
}

// dispatchWork returns every held-out feasible input of the five functions
// in one seeded shuffle.
func dispatchWork(tu *tuned, seed int64) []replayCall {
	var work []replayCall
	for fn, s := range tu.suites {
		for _, in := range autotuner.FeasibleTest(s) {
			work = append(work, replayCall{fn: fn, in: in, best: bestOf(in)})
		}
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6469737061746368)) // "dispatch"
	rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
	return work
}

// loopResult is what one or more calling phases measured.
type loopResult struct {
	blockNs []float64 // per-call ns, one sample per block
	// rates holds each phase's calls per second: every caller's calls over
	// the time its blocks took, summed over callers. Time spent checking
	// outputs between blocks is not counted.
	rates   []float64
	windows []window
	calls   int64
	failed  int64
	quality geoRatio
	err     error // first failed output check
}

func (r *loopResult) merge(o loopResult) {
	r.blockNs = append(r.blockNs, o.blockNs...)
	r.rates = append(r.rates, o.rates...)
	r.windows = append(r.windows, o.windows...)
	r.calls += o.calls
	r.failed += o.failed
	r.quality.merge(o.quality)
	if r.err == nil {
		r.err = o.err
	}
}

// callsPerS is the median phase rate.
func (r loopResult) callsPerS() float64 { return median(r.rates) }

// closedLoop runs callers goroutines, each cycling the work list from its
// own offset and issuing its next call as soon as the last one returns,
// until dur has passed. Every caller first makes one warm-up pass (memo,
// pools, branch predictors), outside the timed window. Each call's output
// is checked after its block's clock stops. With a tracer, every call is
// also recorded as a span.
func (rs *replaySet) closedLoop(work []replayCall, callers int, dur time.Duration, tr *tracer) loopResult {
	results := make([]loopResult, callers)
	busyNs := make([]int64, callers)
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	ready.Add(callers)
	done.Add(callers)
	for w := 0; w < callers; w++ {
		go func(w int) {
			defer done.Done()
			ln := tr.lane()
			res := &results[w]
			pos := w * len(work) / callers
			for range work {
				c := &work[pos%len(work)]
				rs.cvs[c.fn].Call(c.in)
				pos++
			}
			ready.Done()
			<-start
			var vals [blockCalls]float64
			var names [blockCalls]string
			var errs [blockCalls]error
			deadline := time.Now().Add(dur)
			for op := int64(0); ; {
				t0 := time.Now()
				if t0.After(deadline) {
					break
				}
				for k := 0; k < blockCalls; k++ {
					c := &work[(pos+k)%len(work)]
					began := ln.now()
					vals[k], names[k], errs[k] = rs.cvs[c.fn].Call(c.in)
					ln.record("core.Call", 0, op, began)
					op++
				}
				ns := time.Since(t0).Nanoseconds()
				busyNs[w] += ns
				res.blockNs = append(res.blockNs, float64(ns)/blockCalls)
				for k := 0; k < blockCalls; k++ {
					c := &work[(pos+k)%len(work)]
					if err := rs.check(c.fn, c.in, vals[k], names[k], errs[k]); err != nil {
						res.failed++
						if res.err == nil {
							res.err = err
						}
						continue
					}
					res.quality.add(c.best / vals[k])
				}
				pos += blockCalls
				res.calls += blockCalls
			}
		}(w)
	}
	ready.Wait()
	close(start)
	done.Wait()
	var out loopResult
	rate := 0.0
	for w, r := range results {
		out.merge(r)
		rate += float64(r.calls) / (float64(busyNs[w]) / 1e9)
	}
	out.rates = []float64{rate}
	return out
}

// segmentedLoop runs closedLoop in segments of segmentDur with fresh caller
// goroutines, recording each segment as a window. Where each caller lands
// (its stack, its statistics shard, its thread) is sampled anew each time.
// Each segment calls its own jittered copy of the work, so each has its
// own set of memo slot collisions: the memo is direct-mapped, and which
// few of a seed's vectors share a slot would otherwise set the hit rate,
// and with it the call time, of the whole run.
func (rs *replaySet) segmentedLoop(work []replayCall, callers int, dur time.Duration, rng *rand.Rand) loopResult {
	var out loopResult
	for i := time.Duration(0); i < dur; i += segmentDur {
		seg := rs.closedLoop(jittered(work, rng), callers, segmentDur, nil)
		seg.windows = []window{windowOf(append([]float64(nil), seg.blockNs...), seg.rates[0])}
		out.merge(seg)
	}
	return out
}

// jittered returns a copy of work whose feature vectors carry a fresh
// seeded jitter far below any decision margin.
func jittered(work []replayCall, rng *rand.Rand) []replayCall {
	out := append([]replayCall(nil), work...)
	for i := range out {
		in := &out[i].in
		in.Features = jitter(rng, make([]float64, len(in.Features)), in.Features)
	}
	return out
}

// segmentDur is the length of one dispatch window.
const segmentDur = 250 * time.Millisecond

// tierCheck verifies that the Context's tier counters account for every
// model-served call of every function, and returns their totals.
func (rs *replaySet) tierCheck() (memo, compiled, exact, calls, fallbacks int, err error) {
	for _, name := range rs.names {
		st := rs.cx.Stats(name)
		if sum := st.MemoHits + st.CompiledHits + st.ExactFallbacks; sum != st.Calls {
			return 0, 0, 0, 0, 0, fmt.Errorf("%s: tier counters sum to %d over %d model-served calls", name, sum, st.Calls)
		}
		memo += st.MemoHits
		compiled += st.CompiledHits
		exact += st.ExactFallbacks
		calls += st.Calls
		fallbacks += st.DefaultFallbacks
	}
	return memo, compiled, exact, calls, fallbacks, nil
}
