package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"nitro/internal/autotuner"
	"nitro/internal/core"
	"nitro/internal/online"
)

// The drifting stream: every function gets adaptEpisodes segments of
// adaptEpisode calls. At each segment boundary the per-variant costs rotate
// by one more slot, so the feature → best-variant mapping changes while the
// features stay put: a pure concept drift, adaptEpisodes-1 onsets per
// function.
const (
	adaptEpisode  = 8000
	adaptEpisodes = 4
	// adaptJitter is the relative feature noise that keeps every vector of
	// the stream distinct (so the memo never hits) while staying far below
	// any decision margin. Dispatch uses it too, for a fresh copy of its
	// inputs per window.
	adaptJitter = 1e-9
)

// jitter writes src into dst with a relative noise of adaptJitter and
// returns dst.
func jitter(rng *rand.Rand, dst, src []float64) []float64 {
	for j, x := range src {
		dst[j] = x*(1+adaptJitter*(2*rng.Float64()-1)) + adaptJitter*1e-3*rng.Float64()
	}
	return dst
}

// adaptStream is one function's drifting input stream.
type adaptStream struct {
	ins  []autotuner.Instance
	best []float64
}

// adaptStreams draws each function's stream from its held-out feasible
// inputs with a seeded generator. The jittered features and the rotated
// costs live in one flat buffer each per function, so the stream adds few
// objects for the collector to trace while the program under test runs.
func adaptStreams(tu *tuned, seed int64) []adaptStream {
	out := make([]adaptStream, len(tu.suites))
	for fn, s := range tu.suites {
		feasible := autotuner.FeasibleTest(s)
		rng := rand.New(rand.NewPCG(uint64(seed), uint64(fn)+0x6164617074)) // "adapt"
		n, dim, nv := adaptEpisode*adaptEpisodes, len(s.FeatureNames), len(s.VariantNames)
		feats := make([]float64, n*dim)
		// rotated[(b*nv+r)*nv+j] is base input b's cost of variant j under
		// rotation r.
		rotated := make([]float64, len(feasible)*nv*nv)
		for b, in := range feasible {
			for r := 0; r < nv; r++ {
				for j := 0; j < nv; j++ {
					rotated[(b*nv+r)*nv+j] = in.Times[(j+r)%nv]
				}
			}
		}
		st := adaptStream{ins: make([]autotuner.Instance, n), best: make([]float64, n)}
		for i := range st.ins {
			b := rng.IntN(len(feasible))
			in := feasible[b]
			f := jitter(rng, feats[i*dim:(i+1)*dim:(i+1)*dim], in.Features)
			k := b*nv + (i/adaptEpisode)%nv
			in.Features, in.Times = f, rotated[k*nv:(k+1)*nv:(k+1)*nv]
			st.ins[i], st.best[i] = in, bestOf(in)
		}
		out[fn] = st
	}
	return out
}

// adaptPass is what one pass over every function's stream measured.
type adaptPass struct {
	loop loopResult
	// timeline is every function's adaptation events, rendered without
	// wall-clock fields, so two passes at one seed must match exactly.
	timeline []string
	// reaction holds, per drift onset, the calls until the engine reported
	// recovery (the episode length when it never did).
	reaction    []float64
	unrecovered int
	stats       core.AdaptStats
	// retrainMs holds the wall time of each call that ran a synchronous
	// retrain (traced passes only).
	retrainMs []float64
	memoHits  int
	modelled  int
}

// runAdapt serves each function's stream through a fresh replay CodeVariant
// with the tuned model installed and, when engine is set, an adaptation
// engine attached with the default policy at the run's seed, retraining
// synchronously so the timeline is deterministic. With a tracer every call
// is also recorded as a span and timed on its own. With heapMB set, it
// records the heap the pass's Contexts, CodeVariants and engines hold once
// every stream is served: the live heap after a forced collection, less
// the live heap before the pass.
func runAdapt(tu *tuned, streams []adaptStream, seed int64, engine bool, tr *tracer, heapMB *float64) (adaptPass, error) {
	var p adaptPass
	ln := tr.lane()
	var busyNs int64
	n := 0
	for _, st := range streams {
		n += len(st.ins)
	}
	p.loop.blockNs = make([]float64, 0, n/blockCalls)
	var baseMB float64
	if heapMB != nil {
		baseMB = liveHeapMB()
	}
	// served keeps each function's state live until every stream is served.
	type served struct {
		rs     *replaySet
		cv     *core.CodeVariant[autotuner.Instance]
		eng    *online.Engine[autotuner.Instance]
		callNs []int64
	}
	open := make([]served, len(tu.suites))
	for fn, s := range tu.suites {
		rs := &replaySet{cx: core.NewContext()}
		cv, err := rs.add(s, tu.models[fn])
		if err != nil {
			return p, err
		}
		sv := served{rs: rs, cv: cv}
		if engine {
			pol := online.DefaultPolicy(seed)
			pol.Synchronous = true
			if sv.eng, err = online.Attach(cv, pol); err != nil {
				return p, err
			}
		}
		if tr != nil {
			sv.callNs = make([]int64, len(streams[fn].ins))
		}
		open[fn] = sv
	}
	// The streams are served interleaved, one call of each function in
	// turn, so every timed block mixes the five functions' costs and the
	// pass's median block does not jump between functions; each engine
	// still sees its own stream in order.
	nfn := len(open)
	var vals [blockCalls]float64
	var names [blockCalls]string
	var errs [blockCalls]error
	for b := 0; b+blockCalls <= n; b += blockCalls {
		t0 := time.Now()
		for k := 0; k < blockCalls; k++ {
			fn, i := (b+k)%nfn, (b+k)/nfn
			began := ln.now()
			vals[k], names[k], errs[k] = open[fn].cv.Call(streams[fn].ins[i])
			if tr != nil {
				ln.record("core.Call", 0, int64(b+k), began)
				open[fn].callNs[i] = ln.now() - began
			}
		}
		ns := time.Since(t0).Nanoseconds()
		busyNs += ns
		p.loop.blockNs = append(p.loop.blockNs, float64(ns)/blockCalls)
		for k := 0; k < blockCalls; k++ {
			fn, i := (b+k)%nfn, (b+k)/nfn
			st := streams[fn]
			if err := open[fn].rs.check(0, st.ins[i], vals[k], names[k], errs[k]); err != nil {
				p.loop.failed++
				if p.loop.err == nil {
					p.loop.err = err
				}
				continue
			}
			p.loop.quality.add(st.best[i] / vals[k])
		}
		p.loop.calls += blockCalls
	}
	if heapMB != nil {
		*heapMB = liveHeapMB() - baseMB
	}
	for fn, sv := range open {
		s := tu.suites[fn]
		cs := sv.rs.cx.Stats(s.Name)
		p.memoHits += cs.MemoHits
		p.modelled += cs.MemoHits + cs.CompiledHits + cs.ExactFallbacks
		if sv.eng == nil {
			continue
		}
		sv.eng.Close()
		events := sv.eng.Events()
		for _, ev := range events {
			p.timeline = append(p.timeline, s.Name+" "+ev.String())
			if ev.Kind == online.EventRetrain && sv.callNs != nil {
				// ev.Call counts observed calls, so the call that ran the
				// retrain is stream index ev.Call-1.
				if i := int(ev.Call) - 1; i >= 0 && i < len(sv.callNs) {
					p.retrainMs = append(p.retrainMs, float64(sv.callNs[i])/1e6)
				}
			}
		}
		for onset := adaptEpisode; onset < len(streams[fn].ins); onset += adaptEpisode {
			react, ok := float64(adaptEpisode), false
			for _, ev := range events {
				if ev.Kind == online.EventRecovered && ev.Call > int64(onset) && ev.Call <= int64(onset+adaptEpisode) {
					react, ok = float64(ev.Call-int64(onset)), true
					break
				}
			}
			if !ok {
				p.unrecovered++
			}
			p.reaction = append(p.reaction, react)
		}
		es := sv.eng.Stats()
		p.stats.Calls += es.Calls
		p.stats.Sampled += es.Sampled
		p.stats.Explored += es.Explored
		p.stats.ExploreSeconds += es.ExploreSeconds
		p.stats.Mismatches += es.Mismatches
		p.stats.Drifts += es.Drifts
		p.stats.Retrains += es.Retrains
		p.stats.Swaps += es.Swaps
		p.stats.Rollbacks += es.Rollbacks
	}
	p.loop.rates = []float64{float64(p.loop.calls) / (float64(busyNs) / 1e9)}
	return p, nil
}

// sameTimeline reports where two passes' adaptation timelines first differ.
func sameTimeline(a, b []string) error {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Errorf("adaptation timeline differs at event %d: %q vs %q", i, a[i], b[i])
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("adaptation timeline has %d events in one pass, %d in another:\n%s", len(a), len(b), strings.Join(a, "\n"))
	}
	return nil
}
