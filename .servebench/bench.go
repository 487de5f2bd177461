package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"echoimage/internal/proto"
)

// Untraced runs set up this many times and report the median set-up time;
// traced runs set up once.
const setupRepeats = 3

// satRequests is how many closed-loop authenticates an untraced run
// times for the saturation rate: the verify pass, which sends every
// capture once, then seeded repeats up to this count: three passes over
// the direct workload's captures. Over two passes, ten runs of the direct
// workload spread by a fifth. Traced runs send the verify pass alone.
const satRequests = 108

// maxLagMs is how late the generator may dispatch its 90th-percentile
// arrival before the run is declared invalid: beyond it, the schedule
// and not the servers would be setting the latency.
const maxLagMs = 100

// bench is one run of one workload.
type bench struct {
	w        workload
	seed     int64
	trace    bool
	binDir   string
	runDir   string // per-run scratch: server logs, models, state dirs
	traceDir string
	in       *inputs
	conns    int // connections dialed so far; numbers each one's request IDs
	gate     []string
}

func (b *bench) failf(format string, args ...any) {
	b.gate = append(b.gate, fmt.Sprintf(format, args...))
}

// connect dials one connection per CPU: the generator never holds more.
func (b *bench) connect(addr string) ([]*client, error) {
	var cs []*client
	for range runtime.NumCPU() {
		c, err := b.dial(addr)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func (b *bench) dial(addr string) (*client, error) {
	b.conns++
	return dial(addr, b.conns)
}

func closeAll(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// setup is one started and trained deployment.
type setup struct {
	dir     string // logs, persisted models and state directories
	dep     *deployment
	clients []*client
	dur     time.Duration
}

func (s *setup) close() {
	closeAll(s.clients)
	s.dep.stop()
}

// setUp boots the servers and makes them ready: every roster capture
// enrolled and one hinted Wait:true retrain per owning shard. The clock
// runs from the first process start to the last retrain reply.
func (b *bench) setUp(idx int) (*setup, error) {
	dir := filepath.Join(b.runDir, fmt.Sprintf("setup-%d", idx))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	daemons, err := startDaemons(b.binDir, dir, b.w, max(b.w.shards, 1))
	if err != nil {
		return nil, err
	}
	s := &setup{dir: dir, dep: &deployment{daemons: daemons}}
	if b.w.shards > 0 {
		if s.dep.router, s.dep.shards, err = startRouter(b.binDir, dir, daemons); err != nil {
			s.close()
			return nil, err
		}
	}
	if s.clients, err = b.connect(s.dep.entry()); err != nil {
		s.close()
		return nil, err
	}
	outs, _ := closedLoop(s.clients, len(b.in.setup), func(c *client, i int) []outcome {
		return []outcome{call(c, proto.TypeEnrollRequest, b.in.setup[i].frame, -1, time.Now())}
	})
	for _, o := range flatten(outs) {
		if o.code != "" {
			s.close()
			return nil, fmt.Errorf("set-up enroll refused: %s", o.code)
		}
	}
	if err := b.retrain(s, setupUsers, 1); err != nil {
		s.close()
		return nil, err
	}
	s.dur = time.Since(start)
	return s, nil
}

// retrain sends rounds hinted Wait:true retrains, one after another, to
// each daemon owning any of users, daemons in parallel over the
// connections.
func (b *bench) retrain(s *setup, users []int, rounds int) error {
	hint := map[int]int{} // daemon -> smallest owned user
	for _, u := range users {
		d := s.dep.owner(u)
		if h, ok := hint[d]; !ok || u < h {
			hint[d] = u
		}
	}
	var hints []int
	for _, u := range hint {
		hints = append(hints, u)
	}
	sort.Ints(hints)
	outs, _ := closedLoop(s.clients, len(hints), func(c *client, i int) []outcome {
		var outs []outcome
		for range rounds {
			outs = append(outs, callRetrain(c, hints[i]))
		}
		return outs
	})
	for _, o := range flatten(outs) {
		if o.code != "" {
			return fmt.Errorf("retrain refused: %s", o.code)
		}
	}
	return nil
}

// callRetrain sends a Wait:true retrain hinted to the given user's shard.
func callRetrain(c *client, hint int) outcome {
	start := time.Now()
	f, err := buildFrame(proto.TypeRetrainRequest, hint, proto.RetrainRequest{Wait: true})
	if err != nil {
		return outcome{kind: proto.TypeRetrainRequest, start: start, done: time.Now(), code: codeBadReply}
	}
	return call(c, proto.TypeRetrainRequest, f, -1, start)
}

func flatten(outs [][]outcome) []outcome {
	var flat []outcome
	for _, o := range outs {
		flat = append(flat, o...)
	}
	return flat
}

// decision is what a verify or load authenticate answered.
type decision struct {
	accepted bool
	user     int
}

// runReport collects a run's measurements.
type runReport struct {
	setups    []float64 // seconds
	load      []outcome
	lags      []float64
	verify    []outcome     // the verify pass: every capture once
	repeat    []outcome     // closed-loop repeats, for the saturation rate
	closedDur time.Duration // of the verify pass and the repeats
	rssMB     float64
	trace     *traceReport
}

// run executes the workload: set-ups, the open-loop phase, the final
// retrains (mixed), the verify passes and, for traced runs, the replay.
func (b *bench) run() (*runReport, error) {
	rep := &runReport{}
	repeats := setupRepeats
	if b.trace {
		repeats = 1
	}
	var s *setup
	for i := range repeats {
		var err error
		if s, err = b.setUp(i); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, s.dur.Seconds())
		fmt.Fprintf(os.Stderr, "servebench: set-up %d ready in %.3f s\n", i+1, s.dur.Seconds())
		if i < repeats-1 {
			s.close()
		}
	}
	defer s.close()

	rep.load, rep.lags = openLoop(s.clients, b.in, b.in.schedule)
	fmt.Fprintf(os.Stderr, "servebench: open loop sent %d requests\n", len(rep.load))
	if b.w.shards > 0 {
		// The first retrain waits out any background extend still in
		// flight; the second then finds no new users and trains in full
		// over everything enrolled, so the verified model does not depend
		// on load timing.
		if err := b.retrain(s, append(append([]int(nil), setupUsers...), lateUsers...), 2); err != nil {
			return nil, err
		}
	}
	// One closed loop: its first len(captures) requests are the verify
	// pass, the rest repeats in seeded permutations.
	ncap := len(b.in.captures)
	n := ncap
	if !b.trace {
		n = max(n, satRequests)
	}
	rng := newRand(b.seed + 1)
	var order []int
	for len(order) < n {
		order = append(order, rng.Perm(ncap)...)
	}
	outs, dur := closedLoop(s.clients, n, func(c *client, i int) []outcome {
		ci := order[i]
		return []outcome{call(c, proto.TypeAuthRequest, b.in.captures[ci].frame, ci, time.Now())}
	})
	closed := flatten(outs)
	rep.verify, rep.repeat, rep.closedDur = closed[:ncap], closed[ncap:], dur
	fmt.Fprintf(os.Stderr, "servebench: %d closed-loop authenticates took %.1f s\n", n, dur.Seconds())

	var err error
	if rep.rssMB, err = s.dep.peakRSSMB(); err != nil {
		return nil, err
	}
	if b.trace {
		if rep.trace, err = b.replay(s, rep); err != nil {
			return nil, err
		}
	}
	b.check(rep)
	return rep, nil
}

// check applies the correctness gate.
func (b *bench) check(rep *runReport) {
	codes := map[string]int{}
	for _, set := range [][]outcome{rep.load, rep.verify, rep.repeat} {
		for _, o := range set {
			if gateFailure(o.code) {
				codes[o.code]++
			}
		}
	}
	for code, n := range codes {
		b.failf("%d requests failed with %s", n, code)
	}
	verified := make([]int, len(b.in.captures))
	want := make([]decision, len(b.in.captures))
	for _, o := range rep.verify {
		verified[o.capture]++
		want[o.capture] = decision{o.auth.Accepted, o.auth.UserID}
		if o.code != "" {
			b.failf("verify of capture %d answered %s", o.capture, o.code)
		}
	}
	for i, n := range verified {
		if n != 1 {
			b.failf("verify pass covered capture %d %d times", i, n)
		}
	}
	// The model is fixed from the verify pass on, and in the direct
	// workload from set-up on, so a capture must get the same answer each
	// time.
	same := func(phase string, outs []outcome) {
		for _, o := range outs {
			if got := (decision{o.auth.Accepted, o.auth.UserID}); o.kind == proto.TypeAuthRequest && o.code == "" && got != want[o.capture] {
				b.failf("capture %d decided %v %s but %v in the verify pass", o.capture, got, phase, want[o.capture])
			}
		}
	}
	same("in a closed-loop repeat", rep.repeat)
	if b.w.shards == 0 {
		same("under load", rep.load)
	}
	if q, err := percentile(rep.lags, 0.9); err != nil {
		b.failf("generator lag: %v", err)
	} else if q.Value > maxLagMs {
		b.failf("generator lagged: p90 %.1f ms behind schedule", q.Value)
	}
}

// accuracy scores the verify pass: a genuine capture is correct when
// accepted as its own subject, an impostor's when rejected.
func (b *bench) accuracy(verify []outcome) float64 {
	correct := 0
	for _, o := range verify {
		cp := b.in.captures[o.capture]
		if cp.genuine && o.auth.Accepted && o.auth.UserID == cp.subject || !cp.genuine && !o.auth.Accepted {
			correct++
		}
	}
	return float64(correct) / float64(len(verify))
}

// confusion breaks the verify pass down by genuine and impostor captures.
func (b *bench) confusion(verify []outcome) string {
	var self, other, rejected, impostors, accepted int
	for _, o := range verify {
		cp := b.in.captures[o.capture]
		switch {
		case !cp.genuine:
			impostors++
			if o.auth.Accepted {
				accepted++
			}
		case !o.auth.Accepted:
			rejected++
		case o.auth.UserID == cp.subject:
			self++
		default:
			other++
		}
	}
	return fmt.Sprintf("genuine: %d accepted as self, %d as another user, %d rejected; impostors: %d of %d accepted",
		self, other, rejected, accepted, impostors)
}

// latencies returns the outcomes' latencies in ms; failed or refused
// requests count as infinitely late, so they miss any latency limit.
func latencies(outs []outcome, kind proto.MsgType) []float64 {
	var ms []float64
	for _, o := range outs {
		if o.kind != kind {
			continue
		}
		if o.code != "" {
			ms = append(ms, math.Inf(1))
			continue
		}
		ms = append(ms, o.ms())
	}
	return ms
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the untraced metrics. Percentiles it cannot support
// are errors: the run then reports nothing rather than a thin tail.
func (b *bench) endToEnd(rep *runReport, notes *strings.Builder) (map[string]metric, error) {
	m := map[string]metric{}
	setup, err := median(rep.setups)
	if err != nil {
		return nil, err
	}
	m["setup_s"] = metric{setup, "s"}
	fmt.Fprintf(notes, "setup_s %.4f s (median of %d set-ups: %v)\n", setup, len(rep.setups), rep.setups)

	auth := latencies(rep.load, proto.TypeAuthRequest)
	enroll := latencies(rep.load, proto.TypeEnrollRequest)
	for _, p := range []struct {
		name   string
		xs     []float64
		q      float64
		source string
	}{
		{"auth_p50_ms", auth, 0.5, "open-loop authenticates"},
		{"auth_p90_ms", auth, 0.9, "open-loop authenticates"},
		{"enroll_p50_ms", enroll, 0.5, "open-loop enrollments"},
	} {
		q, err := percentile(p.xs, p.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		if math.IsInf(q.Value, 1) {
			return nil, fmt.Errorf("%s: failed requests reach the percentile", p.name)
		}
		m[p.name] = metric{q.Value, "ms"}
		fmt.Fprintf(notes, "%s %.3f ms (%d %s, %d beyond)\n", p.name, q.Value, q.Samples, p.source, q.Beyond)
	}
	sat := len(rep.verify) + len(rep.repeat)
	rps := float64(sat) / rep.closedDur.Seconds()
	m["auth_sat_rps"] = metric{rps, "1/s"}
	fmt.Fprintf(notes, "auth_sat_rps %.4f 1/s (%d closed-loop authenticates, the verify pass then repeats, over %d connections in %.3f s)\n",
		rps, sat, runtime.NumCPU(), rep.closedDur.Seconds())
	acc := b.accuracy(rep.verify)
	m["auth_accuracy"] = metric{acc, "ratio"}
	fmt.Fprintf(notes, "auth_accuracy %.4f ratio (verify pass, %d captures; %s)\n", acc, len(rep.verify), b.confusion(rep.verify))
	attempted, failed := counts(rep)
	ok := float64(attempted-failed) / float64(attempted)
	m["ok_ratio"] = metric{ok, "ratio"}
	fmt.Fprintf(notes, "ok_ratio %.4f ratio (%d of %d requests)\n", ok, attempted-failed, attempted)
	m["peak_rss_mb"] = metric{rep.rssMB, "MB"}
	fmt.Fprintf(notes, "peak_rss_mb %.1f MB (VmHWM summed over %d server processes)\n", rep.rssMB, max(b.w.shards, 1)+boolInt(b.w.shards > 0))
	return m, nil
}

// counts returns the requests attempted and failed in the measured phases.
func counts(rep *runReport) (attempted, failed int) {
	for _, set := range [][]outcome{rep.load, rep.verify, rep.repeat} {
		for _, o := range set {
			attempted++
			if o.code != "" {
				failed++
			}
		}
	}
	return attempted, failed
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
