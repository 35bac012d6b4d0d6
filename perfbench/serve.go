package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"nitro/internal/ml"
	"nitro/internal/online"
	"nitro/internal/server"
	"nitro/internal/server/client"
)

// The serve load: an open loop of seeded Poisson arrivals stepped through
// fixed offered rates. serveLimitUs is the p99 latency limit a step must
// meet, for reads and for writes, to count toward max_rps. A step whose
// generator ran later than the limit at p99 cannot tell whether the server
// met it, so serveLagLimitUs, the bound past which a step is invalid, is
// the same figure.
const (
	serveTenant     = "bench"
	serveToken      = "bench-token"
	serveNominalRPS = 1000
	serveLimitUs    = 5000
	serveLagLimitUs = serveLimitUs
	serveBatch      = 16
)

var serveRates = []float64{250, 500, 1000, 2000, 4000}

// Op classes of the mix: three reads, then two writes. serveMix is each
// class's share of requests.
const (
	opNotModified = iota // conditional pull answered 304
	opDeployment         // deployment read
	opPull               // unconditional pull, ETag check and decode
	opReport             // canary progress report from a distinct reporter
	opObserve            // observation push of serveBatch samples
	numOps
)

var (
	opNames  = [numOps]string{"pull_304", "deployment", "pull_decode", "canary_report", "observe_push"}
	serveMix = [numOps]float64{0.40, 0.20, 0.20, 0.10, 0.10}
)

func isWrite(op int) bool { return op >= opReport }

// serveFn is one registered function: a stable version and a live canary
// whose MinSamples no run can reach, so every report stays pending.
type serveFn struct {
	name       string
	stableVer  int
	stableETag string
	stableData []byte
	canaryVer  int
	batches    [][]online.RemoteSample
}

// serveState is one in-process daemon on loopback with its journal in an
// on-disk data dir, plus a client with retries and the breaker off.
type serveState struct {
	dir   string
	d     *server.Daemon
	c     *client.Client
	httpc *http.Client
	fns   []serveFn
	conns int
	// acked[w][fn] is the cumulative canary calls worker w's reporter has
	// had acknowledged; reporters never share a worker, so each one's
	// reports reach the server in order.
	acked [][]int64
}

// newServe starts the daemon in dir and registers each tuned function with
// its exact model as stable and its distilled model as the canary.
func newServe(tu *tuned, dir string, conns int) (*serveState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := server.Config{
		Addr: "127.0.0.1:0",
		Registry: server.RegistryConfig{
			Tenants: []server.TenantConfig{{Name: serveTenant, Token: serveToken}},
			DataDir: dir,
			Workers: 1,
			Canary:  server.CanaryPolicy{Fraction: 0.2, MinSamples: 1 << 50, MaxFailureRate: 0.1},
		},
	}
	d, err := server.NewDaemon(cfg)
	if err != nil {
		return nil, err
	}
	if err := d.Start(cfg); err != nil {
		d.Shutdown(context.Background())
		return nil, err
	}
	st := &serveState{dir: dir, d: d, conns: conns}
	st.httpc = &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
	}}
	st.c, err = client.New(client.Config{
		BaseURL: "http://" + d.Addr(), Token: serveToken, HTTPClient: st.httpc,
		Retries: -1, BreakerThreshold: -1, Seed: 1,
	})
	if err != nil {
		st.close()
		return nil, err
	}
	ctx := context.Background()
	for i, s := range tu.suites {
		fn := serveFn{name: strings.ToLower(s.Name)}
		spec := server.FunctionSpec{Name: fn.name, Features: s.FeatureNames, Variants: s.VariantNames, Default: s.DefaultVariant}
		if err := st.c.RegisterFunction(ctx, spec); err != nil {
			st.close()
			return nil, fmt.Errorf("register %s: %w", fn.name, err)
		}
		exact := *tu.models[i]
		exact.Compiled = nil
		for _, m := range []*ml.Model{&exact, tu.models[i]} {
			data, _, err := ml.EncodeArtifact(m)
			if err != nil {
				st.close()
				return nil, err
			}
			if _, err := st.c.PushModel(ctx, fn.name, data, ""); err != nil {
				st.close()
				return nil, fmt.Errorf("push %s: %w", fn.name, err)
			}
		}
		dep, err := st.c.Deployment(ctx, fn.name)
		if err != nil || dep.Canary == nil {
			st.close()
			return nil, fmt.Errorf("%s: no canary staged (%v)", fn.name, err)
		}
		fn.stableVer, fn.stableETag, fn.canaryVer = dep.Stable, dep.StableETag, dep.Canary.Version
		pull, err := st.c.PullModel(ctx, fn.name, 0, "")
		if err != nil {
			st.close()
			return nil, err
		}
		fn.stableData = pull.Data
		fn.batches = sampleBatches(tu, i)
		st.fns = append(st.fns, fn)
	}
	st.acked = make([][]int64, conns+1) // the last row is the in-memory ladder's reporter
	for w := range st.acked {
		st.acked[w] = make([]int64, len(st.fns))
	}
	return st, nil
}

// sampleBatches cuts a function's held-out inputs whose every variant ran
// into observation batches; the recorded prediction is the best variant,
// so the pushes never trigger a drift-driven retrain.
func sampleBatches(tu *tuned, fn int) [][]online.RemoteSample {
	var all []online.RemoteSample
	for _, in := range tu.suites[fn].Test {
		finite := true
		for _, t := range in.Times {
			finite = finite && !math.IsInf(t, 1)
		}
		if b, _ := in.Best(); finite && b >= 0 {
			all = append(all, online.RemoteSample{Features: in.Features, Times: in.Times, Predicted: b})
		}
	}
	var out [][]online.RemoteSample
	for i := 0; i+serveBatch <= len(all); i += serveBatch {
		out = append(out, all[i:i+serveBatch])
	}
	if len(out) == 0 {
		// Too few fully feasible inputs: repeat them to fill one batch.
		b := make([]online.RemoteSample, serveBatch)
		for i := range b {
			b[i] = all[i%len(all)]
		}
		out = append(out, b)
	}
	return out
}

func (st *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st.d.Shutdown(ctx)
	st.httpc.CloseIdleConnections()
	os.RemoveAll(st.dir)
}

// request is one scheduled arrival.
type request struct {
	at  time.Duration // due time from the start of the step
	op  int
	fn  int
	arg int // observation batch index
}

// schedule draws a step's Poisson arrivals and their mix.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, nfn int) []request {
	var out []request
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return out
		}
		r := draw(rng, nfn)
		r.at = t
		out = append(out, r)
	}
}

// draw picks one request's op class from the mix, its function and its
// argument.
func draw(rng *rand.Rand, nfn int) request {
	u, op := rng.Float64(), 0
	for op < numOps-1 && u >= serveMix[op] {
		u -= serveMix[op]
		op++
	}
	return request{op: op, fn: rng.IntN(nfn), arg: rng.IntN(1 << 20)}
}

// satPool is how many requests the saturation pool holds, several times
// what one saturation slice can serve.
const satPool = 1 << 15

// mixPool draws the requests saturation slices take, once, before the
// timed phase.
func mixPool(rng *rand.Rand, nfn int) []request {
	pool := make([]request, satPool)
	for i := range pool {
		pool[i] = draw(rng, nfn)
	}
	return pool
}

// outcome is one executed request.
type outcome struct {
	latUs   float64 // from due time to completion
	ok      bool
	refused bool // 429 or 503
	err     error
}

// exec runs one request as worker w and checks its output.
func (st *serveState) exec(ctx context.Context, w int, r request) outcome {
	fn := &st.fns[r.fn]
	var err error
	switch r.op {
	case opNotModified:
		var p client.Pull
		if p, err = st.c.PullModel(ctx, fn.name, 0, fn.stableETag); err == nil && (!p.NotModified || p.Version != fn.stableVer) {
			err = fmt.Errorf("%s: conditional pull with the current ETag got version %d, not-modified=%v", fn.name, p.Version, p.NotModified)
		}
	case opDeployment:
		var dep server.Deployment
		if dep, err = st.c.Deployment(ctx, fn.name); err == nil && (dep.Stable != fn.stableVer || dep.Canary == nil || dep.Canary.Version != fn.canaryVer) {
			err = fmt.Errorf("%s: deployment moved: stable %d", fn.name, dep.Stable)
		}
	case opPull:
		var p client.Pull
		if p, err = st.c.PullModel(ctx, fn.name, 0, ""); err == nil {
			err = checkPull(fn, p)
		}
	case opReport:
		next := st.acked[w][r.fn] + 1
		var dec string
		if dec, _, err = st.c.ReportCanaryAs(ctx, fn.name, fn.canaryVer, fmt.Sprintf("w%d", w), next, 0); err == nil {
			st.acked[w][r.fn] = next
			if dec != server.DecisionPending {
				err = fmt.Errorf("%s: canary report answered %q, want pending", fn.name, dec)
			}
		}
	case opObserve:
		_, err = st.c.PushObservations(ctx, fn.name, fn.batches[r.arg%len(fn.batches)])
	}
	if err != nil {
		return outcome{err: err, refused: client.IsStatus(err, http.StatusTooManyRequests) || client.IsStatus(err, http.StatusServiceUnavailable)}
	}
	return outcome{ok: true}
}

// checkPull verifies a 200 pull: its bytes match its ETag, they are the
// stable artifact, and they decoded to a model.
func checkPull(fn *serveFn, p client.Pull) error {
	switch {
	case p.NotModified:
		return fmt.Errorf("%s: unconditional pull answered 304", fn.name)
	case ml.ETagOf(p.Data) != p.ETag:
		return fmt.Errorf("%s: pulled bytes do not match ETag %s", fn.name, p.ETag)
	case p.ETag != fn.stableETag || p.Version != fn.stableVer:
		return fmt.Errorf("%s: pulled version %d (%s), stable is %d (%s)", fn.name, p.Version, p.ETag, fn.stableVer, fn.stableETag)
	case p.Model == nil:
		return fmt.Errorf("%s: pulled artifact did not decode", fn.name)
	}
	return nil
}

// stepResult is one offered-rate step of the open loop.
type stepResult struct {
	rate     float64
	conns    int
	requests int
	byOp     opCounts
	readUs   []float64 // failed or refused requests count as +Inf
	writeUs  []float64
	allUs    []float64 // every request, in due order
	lagUs    []float64
	backlog  int64
	drained  bool
	firstErr error
}

type opCount struct{ attempted, succeeded, failed, refused int }

// opCounts holds one opCount per op class.
type opCounts [numOps]opCount

// add folds o into c.
func (c *opCounts) add(o opCounts) {
	for op := range c {
		c[op].attempted += o[op].attempted
		c[op].succeeded += o[op].succeeded
		c[op].failed += o[op].failed
		c[op].refused += o[op].refused
	}
}

func (s *stepResult) failed() int {
	n := 0
	for _, c := range s.byOp {
		n += c.failed + c.refused
	}
	return n
}

// valid reports whether the generator kept to the schedule.
func (s *stepResult) valid() bool { return quantile(s.lagUs, 0.99) <= serveLagLimitUs }

// meets reports whether the step is valid, both classes' p99 meet the
// limit, and the backlog left at the step's end is no more than the
// requests one latency limit's worth of arrivals would leave in flight.
func (s *stepResult) meets() bool {
	maxBacklog := math.Max(float64(2*s.conns), s.rate*serveLimitUs/1e6)
	return s.requests > 0 && s.valid() && s.drained &&
		quantile(s.readUs, 0.99) <= serveLimitUs && quantile(s.writeUs, 0.99) <= serveLimitUs &&
		float64(s.backlog) <= maxBacklog
}

// runStep drives one step of the open loop. Each of conns workers takes
// the next request in due order, waits for its due time if it is early,
// and sends it; a request that falls due while every worker is busy goes
// to the first one free. Latency runs from the due time, so a stall also
// counts against the requests queued behind it. Workers wait in nanosleep,
// since runtime timers can fire up to a millisecond late, which would
// swamp the latencies being measured. No goroutine hands requests over:
// one readied by a thread that then sleeps in a system call can wait until
// the runtime takes that thread's processor back, which would charge the
// generator's sleep to the server. How late a waiting worker woke is the
// generator's lag.
func (st *serveState) runStep(rate float64, dur time.Duration, rng *rand.Rand, tr *tracer) stepResult {
	reqs := schedule(rng, rate, dur, len(st.fns))
	res := stepResult{rate: rate, conns: st.conns, requests: len(reqs)}
	outs := make([]outcome, len(reqs))
	lagUs := make([]float64, len(reqs)) // -1: overdue when taken, no wait
	var next, completed atomic.Int64
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < st.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ln := tr.lane()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].at)
				lagUs[i] = -1
				if time.Now().Before(due) {
					// Let goroutines this one readied run before the
					// sleep holds the processor.
					runtime.Gosched()
					sleepUntil(due)
					lagUs[i] = float64(time.Since(due).Nanoseconds()) / 1e3
				}
				s := ln.now()
				o := st.exec(ctx, w, reqs[i])
				ln.record("client."+opNames[reqs[i].op], 0, int64(i), s)
				o.latUs = float64(time.Since(due).Nanoseconds()) / 1e3
				outs[i] = o
				completed.Add(1)
			}
		}(w)
	}
	time.Sleep(time.Until(start.Add(dur)))
	res.backlog = int64(len(reqs)) - completed.Load()
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
		res.drained = true
	case <-time.After(2 * dur):
	}
	<-drained // the client timeout bounds every request, so this ends
	for _, l := range lagUs {
		if l >= 0 {
			res.lagUs = append(res.lagUs, l)
		}
	}
	for i, o := range outs {
		op := reqs[i].op
		c := &res.byOp[op]
		c.attempted++
		lat := o.latUs
		switch {
		case o.ok:
			c.succeeded++
		case o.refused:
			c.refused++
			lat = math.Inf(1)
		default:
			c.failed++
			lat = math.Inf(1)
			if res.firstErr == nil {
				res.firstErr = o.err
			}
		}
		if isWrite(op) {
			res.writeUs = append(res.writeUs, lat)
		} else {
			res.readUs = append(res.readUs, lat)
		}
		res.allUs = append(res.allUs, lat)
	}
	return res
}

// add folds another step at the same rate into s.
func (s *stepResult) add(o stepResult) {
	s.requests += o.requests
	s.byOp.add(o.byOp)
	s.readUs = append(s.readUs, o.readUs...)
	s.writeUs = append(s.writeUs, o.writeUs...)
	s.lagUs = append(s.lagUs, o.lagUs...)
	s.backlog = o.backlog // outstanding at the end of the last slice
	s.drained = s.drained && o.drained
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// canaryCheck verifies that the server's canary counters equal the sum of
// the reports it acknowledged.
func (st *serveState) canaryCheck() error {
	for fi, fn := range st.fns {
		var want int64
		for w := range st.acked {
			want += st.acked[w][fi]
		}
		dep, err := st.d.Registry().Deployment(serveTenant, fn.name)
		if err != nil {
			return err
		}
		if dep.Canary == nil || dep.Canary.Calls != want {
			return fmt.Errorf("%s: server canary counts %+v, acknowledged reports sum to %d", fn.name, dep.Canary, want)
		}
	}
	return nil
}

// fsType names the filesystem holding dir, from statfs.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	return statfsType(abs)
}

// fsyncProbe appends to a file in dir and fsyncs it fsyncProbes times,
// returning each fsync's latency in us. Every canary report fsyncs the
// journal while it holds the registry lock, so the host's fsync cost,
// probed before and after the timed phase, is the figure to read the serve
// metrics against; it is not a metric of the program's.
func fsyncProbe(dir string) ([]float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	line := make([]byte, 200)
	out := make([]float64, fsyncProbes)
	for i := range out {
		if _, err := f.Write(line); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := f.Sync(); err != nil {
			return nil, err
		}
		out[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return out, nil
}

// fsyncProbes is how many fsyncs one probe times.
const fsyncProbes = 100

func newServeRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), 0x7365727665)) // "serve"
}

// sleepUntil blocks the calling thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil)
	}
}

// maxRPS is the highest offered rate at which every step up to it met the
// limit: a valid step, both classes' p99 within it, no growing backlog.
func maxRPS(steps []*stepResult) float64 {
	sorted := append([]*stepResult(nil), steps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].rate < sorted[j].rate })
	best := 0.0
	for _, s := range sorted {
		if !s.meets() {
			break
		}
		best = s.rate
	}
	return best
}

// satResult is a closed-loop slice at saturation.
type satResult struct {
	byOp      opCounts
	completed int       // requests answered correctly before the slice ended
	allUs     []float64 // latency of every correctly answered request
	cpuS      float64   // CPU time the process used over the slice
	firstErr  error
}

// Slice lengths: serveWindow of open loop at the nominal rate (500
// requests, 50 beyond the p90) alternates with satWindow at saturation.
const (
	serveWindow = 500 * time.Millisecond
	satWindow   = 500 * time.Millisecond
)

// rate is the slice's completions per second.
func (s satResult) rate() float64 { return float64(s.completed) / satWindow.Seconds() }

// cpuRate is the slice's correctly answered requests per second of CPU
// time the process (daemon and client) used to serve them.
func (s satResult) cpuRate() float64 { return float64(len(s.allUs)) / s.cpuS }

// processCPU returns the user and system CPU time the process has used,
// in seconds. The kernel leaves out time the hypervisor gave to other
// guests.
func processCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// saturate runs the mix closed-loop on every connection for satWindow:
// each worker sends its next request as soon as the last one returns. The
// requests come from the pool in order from a seeded offset, so the slice
// allocates no schedule of its own. The completion rate is the daemon's
// capacity for this mix.
func (st *serveState) saturate(pool []request, rng *rand.Rand) satResult {
	offset := rng.IntN(len(pool))
	var next atomic.Int64
	results := make([]satResult, st.conns)
	ctx := context.Background()
	deadline := time.Now().Add(satWindow)
	cpu0 := processCPU()
	var wg sync.WaitGroup
	for w := 0; w < st.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			// Every worker sends at least one request, so a slice that
			// started late still times the daemon.
			for first := true; first || time.Now().Before(deadline); first = false {
				r := pool[(offset+int(next.Add(1)-1))%len(pool)]
				t0 := time.Now()
				o := st.exec(ctx, w, r)
				done := time.Now()
				c := &res.byOp[r.op]
				c.attempted++
				switch {
				case o.ok:
					c.succeeded++
					res.allUs = append(res.allUs, float64(done.Sub(t0).Nanoseconds())/1e3)
					if done.Before(deadline) {
						res.completed++
					}
				case o.refused:
					c.refused++
				default:
					c.failed++
					if res.firstErr == nil {
						res.firstErr = o.err
					}
				}
			}
		}(w)
	}
	wg.Wait()
	out := satResult{cpuS: processCPU() - cpu0}
	for _, r := range results {
		out.completed += r.completed
		out.allUs = append(out.allUs, r.allUs...)
		out.byOp.add(r.byOp)
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	return out
}
