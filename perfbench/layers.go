package main

// The traced run: it repeats every workload at the run's seed with a span
// around each call the benchmark makes, and splits the calls it cannot wrap
// from outside into ladder passes over the same inputs. A layer's cost is
// the difference between adjacent rungs.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"nitro/internal/ml"
)

// Ladder pass sizes: operations per rung.
const (
	rungOps       = 1 << 17
	rungRound     = 1 << 12
	registryReads = 1 << 14
	serialWrites  = 1 << 10
	serialReads   = 1 << 11
	// waitPass is how long the lock-wait pass reads while a writer runs.
	waitPass = 300 * time.Millisecond
)

func runTraced(seed int64, seconds int) (*result, error) {
	r := &result{spans: newTracer()}
	tu, err := buildTuned(seed)
	if err != nil {
		return nil, err
	}
	r.add("datasets.gen_s", "s", "lower", tu.genS)
	r.add("autotuner.label_s", "s", "lower", tu.labelS)
	r.add("autotuner.variant_runs", "count", "lower", float64(tu.variantRuns))
	for i, s := range tu.suites {
		r.add("kernels."+strings.ToLower(s.Name)+"_s", "s", "lower", tu.kernelS[i])
	}
	r.add("ml.fit_s", "s", "lower", tu.fitS)
	r.add("ml.distill_s", "s", "lower", tu.distillS)
	r.add("ml.distill_agreement_min", "ratio", "higher", tu.agreementMin)
	checkAgreement(r, tu)

	phase := secondsDur(seconds) / 10
	if err := tracedDispatch(r, tu, seed, phase); err != nil {
		return nil, err
	}
	if err := tracedAdapt(r, tu, seed); err != nil {
		return nil, err
	}
	if err := tracedServe(r, tu, seed, phase); err != nil {
		return nil, err
	}
	return r, nil
}

// rung times n operations in blocks and returns the median per-op ns.
func rung(n int, op func(i int)) float64 { return rungs(n, op)[0] }

// rungs times n operations of each op in blocks and returns each op's
// median per-op ns. The ops take turns a round of rungRound operations at a
// time: long enough that each op runs warm, as it does when called in a
// loop, and often enough that a drift of the host's speed moves every rung
// alike.
func rungs(n int, ops ...func(i int)) []float64 {
	samples := make([][]float64, len(ops))
	for lo := 0; lo < n; lo += rungRound {
		for r, op := range ops {
			for b := lo; b < lo+rungRound && b+blockCalls <= n; b += blockCalls {
				t0 := time.Now()
				for k := 0; k < blockCalls; k++ {
					op(b + k)
				}
				samples[r] = append(samples[r], float64(time.Since(t0).Nanoseconds())/blockCalls)
			}
		}
	}
	out := make([]float64, len(ops))
	for r, xs := range samples {
		out[r] = median(xs)
	}
	return out
}

// each times n operations one by one and returns their latencies in us.
func each(n int, op func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		op(i)
		out[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return out
}

func tracedDispatch(r *result, tu *tuned, seed int64, phase time.Duration) error {
	work := dispatchWork(tu, seed)
	rs, err := newReplaySet(tu, true)
	if err != nil {
		return err
	}
	callers := runtime.GOMAXPROCS(0)
	plain := rs.closedLoop(work, callers, phase, nil)
	traced := rs.closedLoop(work, callers, phase, r.spans)
	single := rs.closedLoop(work, 1, phase, nil)
	for _, l := range []loopResult{plain, traced, single} {
		r.fail(l.err)
		r.attempted += l.calls
		r.failed += l.failed
	}
	memo, compiled, exact, calls, fallbacks, err := rs.tierCheck()
	r.fail(err)

	// The Call ladder, on its own Context so its counters stay apart:
	// features, then selection on those features, then the chosen variant
	// alone, then the whole Call.
	lad, err := newReplaySet(tu, true)
	if err != nil {
		return err
	}
	vecs := make([][]float64, len(work))
	scaled := make([][]float64, len(work))
	chosen := make([]int, len(work))
	for i, c := range work {
		vecs[i], _ = lad.cvs[c.fn].FeatureVector(c.in)
		scaled[i] = tu.models[c.fn].Scaler.Transform(vecs[i])
		if chosen[i], _, err = lad.cvs[c.fn].SelectIndex(c.in, vecs[i]); err != nil {
			return err
		}
	}
	at := func(i int) *replayCall { return &work[i%len(work)] }
	noModel, err := newReplaySet(tu, false)
	if err != nil {
		return err
	}
	ns := rungs(rungOps,
		func(i int) { c := at(i); lad.cvs[c.fn].FeatureVector(c.in) },
		func(i int) { c := at(i); lad.cvs[c.fn].SelectIndex(c.in, vecs[i%len(work)]) },
		func(i int) { c := at(i); lad.cvs[c.fn].ObserveVariant(chosen[i%len(work)], c.in) },
		func(i int) { c := at(i); lad.cvs[c.fn].Call(c.in) },
		func(i int) { c := at(i); noModel.cvs[c.fn].Call(c.in) },
		func(i int) { tu.models[at(i).fn].PredictTier(vecs[i%len(work)]) },
		func(i int) { tu.models[at(i).fn].PredictExact(vecs[i%len(work)]) },
		func(i int) { tu.models[at(i).fn].Compiled.Predict(scaled[i%len(work)]) },
	)
	features, selectNs, variant, call, noModelNs, predictTier, predictExact, walk := ns[0], ns[1], ns[2], ns[3], ns[4], ns[5], ns[6], ns[7]

	r.add("core.features_ns", "ns", "lower", features)
	r.add("core.select_ns", "ns", "lower", selectNs)
	r.add("core.variant_ns", "ns", "lower", variant)
	r.add("core.call_ns", "ns", "lower", call)
	r.add("core.bookkeeping_ns", "ns", "lower", call-features-selectNs-variant)
	r.add("core.nomodel_call_ns", "ns", "lower", noModelNs)
	r.add("core.parallel_speedup", "ratio", "higher", plain.callsPerS()/single.callsPerS())
	r.add("core.memo_hit_frac", "ratio", "higher", float64(memo)/float64(calls))
	r.add("core.compiled_frac", "ratio", "higher", float64(compiled)/float64(calls))
	r.add("core.exact_frac", "ratio", "lower", float64(exact)/float64(calls))
	r.add("core.default_fallback_frac", "ratio", "lower", float64(fallbacks)/float64(calls))
	r.add("ml.predict_tier_ns", "ns", "lower", predictTier)
	r.add("ml.predict_exact_ns", "ns", "lower", predictExact)
	r.add("ml.compiled_walk_ns", "ns", "lower", walk)
	r.add("trace.dispatch_overhead", "ratio", "lower", quantile(traced.blockNs, 0.5)/quantile(plain.blockNs, 0.5))
	return nil
}

func tracedAdapt(r *result, tu *tuned, seed int64) error {
	streams := adaptStreams(tu, seed)
	plain, err := runAdapt(tu, streams, seed, true, nil, nil)
	if err != nil {
		return err
	}
	traced, err := runAdapt(tu, streams, seed, true, r.spans, nil)
	if err != nil {
		return err
	}
	bare, err := runAdapt(tu, streams, seed, false, nil, nil)
	if err != nil {
		return err
	}
	for _, p := range []adaptPass{plain, traced, bare} {
		r.fail(p.loop.err)
		r.attempted += p.loop.calls
		r.failed += p.loop.failed
	}
	r.fail(sameTimeline(plain.timeline, traced.timeline))
	st := plain.stats
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.add("core.stream_memo_hit_frac", "ratio", "lower", float64(plain.memoHits)/float64(plain.modelled))
	r.add("online.observe_ns", "ns", "lower", quantile(plain.loop.blockNs, 0.5)-quantile(bare.loop.blockNs, 0.5))
	r.add("online.sampled_frac", "ratio", "lower", frac(st.Sampled, st.Calls))
	r.add("online.explore_frac", "ratio", "lower", frac(st.Explored, st.Sampled))
	r.add("online.mismatch_frac", "ratio", "lower", frac(st.Mismatches, st.Explored))
	r.add("online.explore_s", "s", "lower", st.ExploreSeconds)
	r.add("online.drifts", "count", "higher", float64(st.Drifts))
	r.add("online.retrains", "count", "lower", float64(st.Retrains))
	r.add("online.swaps", "count", "higher", float64(st.Swaps))
	r.add("online.rollbacks", "count", "lower", float64(st.Rollbacks))
	r.add("online.retrain_ms", "ms", "lower", median(traced.retrainMs))
	r.add("online.adapt_calls", "calls", "lower", meanOf(plain.reaction))
	r.add("online.unrecovered", "count", "lower", float64(plain.unrecovered))
	r.add("trace.adapt_overhead", "ratio", "lower", quantile(traced.loop.blockNs, 0.5)/quantile(plain.loop.blockNs, 0.5))
	return nil
}

// scrape reads the daemon's /metrics in memory and sums every series of
// each named metric.
func scrape(h http.Handler, names ...string) map[string]float64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		for _, n := range names {
			if rest, ok := strings.CutPrefix(line, n); ok && (strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, "{")) {
				if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
					out[n] += v
				}
			}
		}
	}
	return out
}

var scraped = []string{
	"nitro_server_journal_appends_total", "nitro_server_shed_total",
	"nitro_server_artifact_pulls_total", "nitro_server_artifact_pulls_not_modified_total",
}

func tracedServe(r *result, tu *tuned, seed int64, phase time.Duration) error {
	conns := runtime.GOMAXPROCS(0)
	st, err := newServe(tu, serveDir(0), conns)
	if err != nil {
		return err
	}
	defer st.close()
	h := st.d.Handler()
	rng := newServeRNG(seed)
	plain := st.runStep(serveNominalRPS, phase, rng, nil)
	before := scrape(h, scraped...)
	traced := st.runStep(serveNominalRPS, phase, rng, r.spans)
	after := scrape(h, scraped...)
	writes, requests := 0, 0
	for _, s := range []stepResult{plain, traced} {
		r.fail(s.firstErr)
		for _, c := range s.byOp {
			r.attempted += int64(c.attempted)
			r.failed += int64(c.failed + c.refused)
		}
	}
	for op, c := range traced.byOp {
		requests += c.attempted
		if isWrite(op) {
			writes += c.attempted
		}
	}
	delta := func(n string) float64 { return after[n] - before[n] }
	all := func(s stepResult) []float64 { return append(append([]float64(nil), s.readUs...), s.writeUs...) }
	r.add("server.journal_appends_per_write", "count", "lower", delta(scraped[0])/float64(writes))
	r.add("server.shed_frac", "ratio", "lower", delta(scraped[1])/float64(requests))
	r.add("server.not_modified_frac", "ratio", "higher", delta(scraped[3])/delta(scraped[2]))
	r.add("serve.gen_lag_us_p99", "us", "lower", quantile(traced.lagUs, 0.99))
	r.add("serve.backlog", "count", "lower", float64(traced.backlog))
	r.add("trace.serve_overhead", "ratio", "lower", quantile(all(traced), 0.5)/quantile(all(plain), 0.5))

	if err := serverLadder(r, st); err != nil {
		return err
	}
	r.fail(st.canaryCheck())
	return nil
}

// serverLadder times the serve ops at three rungs: the registry called
// directly, the daemon's handler in memory with no socket, and the client
// over loopback. It also measures how long a direct read waits for the
// registry lock while another goroutine writes.
func serverLadder(r *result, st *serveState) error {
	ctx := context.Background()
	reg := st.d.Registry()
	h := st.d.Handler()
	nfn := len(st.fns)
	ladder := len(st.acked) - 1            // the ladder's reporter row
	reporter := fmt.Sprintf("w%d", ladder) // the reporter exec uses for this row
	report := func(fn int) int64 {
		st.acked[ladder][fn]++
		return st.acked[ladder][fn]
	}
	// The lock-wait pass writes from a second goroutine, which keeps its
	// errors apart and hands them over when it ends.
	var firstErr, writerErr error
	keepIn := func(dst *error) func(error) {
		return func(err error) {
			if err != nil && *dst == nil {
				*dst = err
			}
		}
	}
	keep := keepIn(&firstErr)

	readNs := rung(registryReads, func(i int) {
		fn := st.fns[i%nfn].name
		if i%2 == 0 {
			_, _, _, err := reg.Artifact(serveTenant, fn, 0)
			keep(err)
		} else {
			_, err := reg.Deployment(serveTenant, fn)
			keep(err)
		}
	})
	writeDirect := func(i int, keep func(error)) {
		fi := i % nfn
		fn := &st.fns[fi]
		if i%2 == 0 {
			_, _, err := reg.ReportCanary(ctx, serveTenant, fn.name, fn.canaryVer, reporter, report(fi), 0)
			keep(err)
		} else {
			_, err := reg.PushObservations(ctx, serveTenant, fn.name, fn.batches[i%len(fn.batches)])
			keep(err)
		}
	}
	writeUs := each(serialWrites, func(i int) { writeDirect(i, keep) })

	// Lock wait: one goroutine reads while a second writes, from the
	// writer's first write until the reads have covered waitPass.
	stop := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	keepWriter := keepIn(&writerErr)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				writeDirect(i, keepWriter)
			}
			if i == 0 {
				close(started)
			}
		}
	}()
	<-started
	var waitUs []float64
	for i, deadline := 0, time.Now().Add(waitPass); time.Now().Before(deadline); i++ {
		t0 := time.Now()
		_, _, _, err := reg.Artifact(serveTenant, st.fns[i%nfn].name, 0)
		waitUs = append(waitUs, float64(time.Since(t0).Nanoseconds())/1e3)
		keep(err)
	}
	close(stop)
	wg.Wait()
	keep(writerErr)

	// The handler rung: the same ops as HTTP requests served in memory.
	serveReq := func(method, path string, hdr map[string]string, body []byte, want int) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set("Authorization", "Bearer "+serveToken)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want {
			keep(fmt.Errorf("%s %s: status %d, want %d", method, path, rec.Code, want))
		}
		return rec
	}
	handlerRead := func(i int) {
		fn := &st.fns[i%nfn]
		base := "/api/v1/functions/" + fn.name
		switch i % 3 {
		case 0:
			rec := serveReq(http.MethodGet, base+"/model", map[string]string{"If-None-Match": fn.stableETag}, nil, http.StatusNotModified)
			if got := rec.Header().Get("ETag"); got != fn.stableETag {
				keep(fmt.Errorf("%s: 304 carries ETag %q, current is %q", fn.name, got, fn.stableETag))
			}
		case 1:
			serveReq(http.MethodGet, base+"/deployment", nil, nil, http.StatusOK)
		default:
			rec := serveReq(http.MethodGet, base+"/model", nil, nil, http.StatusOK)
			if ml.ETagOf(rec.Body.Bytes()) != rec.Header().Get("ETag") {
				keep(fmt.Errorf("%s: pulled bytes do not match their ETag", fn.name))
			}
		}
	}
	handlerWrite := func(i int) {
		fi := i % nfn
		fn := &st.fns[fi]
		base := "/api/v1/functions/" + fn.name
		if i%2 == 0 {
			body, _ := json.Marshal(map[string]any{"version": fn.canaryVer, "reporter": reporter, "calls": report(fi), "failures": 0})
			serveReq(http.MethodPost, base+"/canary/report", nil, body, http.StatusOK)
		} else {
			body, _ := json.Marshal(map[string]any{"samples": fn.batches[i%len(fn.batches)]})
			serveReq(http.MethodPost, base+"/observations", nil, body, http.StatusAccepted)
		}
	}
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	handlerReadUs := each(serialReads, handlerRead)
	runtime.ReadMemStats(&ms1)
	handlerWriteUs := each(serialWrites, handlerWrite)
	runtime.ReadMemStats(&ms2)

	// The client rung: the same ops through the client over loopback.
	clientReadUs := each(serialReads, func(i int) {
		ops := [3]int{opNotModified, opDeployment, opPull}
		if o := st.exec(ctx, ladder, request{op: ops[i%3], fn: i % nfn}); !o.ok {
			keep(o.err)
		}
	})
	clientWriteUs := each(serialWrites, func(i int) {
		if o := st.exec(ctx, ladder, request{op: opReport + i%2, fn: i % nfn, arg: i}); !o.ok {
			keep(o.err)
		}
	})
	decodeUs := each(serialReads, func(i int) {
		fn := &st.fns[i%nfn]
		_, err := ml.DecodeArtifact(fn.stableData, fn.stableETag)
		keep(err)
	})
	r.fail(firstErr)

	r.add("server.registry_read_ns", "ns", "lower", readNs)
	r.add("server.registry_write_us", "us", "lower", median(writeUs))
	r.add("server.read_wait_us_p99", "us", "lower", quantile(waitUs, 0.99))
	r.add("server.handler_read_us", "us", "lower", median(handlerReadUs))
	r.add("server.handler_write_us", "us", "lower", median(handlerWriteUs))
	r.add("server.allocs_per_read", "count", "lower", float64(ms1.Mallocs-ms0.Mallocs)/serialReads)
	r.add("server.allocs_per_write", "count", "lower", float64(ms2.Mallocs-ms1.Mallocs)/serialWrites)
	r.add("client.http_read_us", "us", "lower", median(clientReadUs)-median(handlerReadUs))
	r.add("client.http_write_us", "us", "lower", median(clientWriteUs)-median(handlerWriteUs))
	r.add("ml.decode_us", "us", "lower", median(decodeUs))
	return nil
}
