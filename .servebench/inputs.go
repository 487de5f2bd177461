package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"echoimage"
	"echoimage/internal/proto"
)

// workload is one traffic mix the benchmark can run.
type workload struct {
	name    string
	grid    int
	spacing float64 // imaging grid spacing, meters
	shards  int     // daemons behind echoimage-router; 0 = one daemon, no router
	// rate is the open-loop arrival rate of evenly spaced slots, about
	// half the closed-loop capacity of a 2-core box on this workload.
	rate float64
	// length scales --seconds into the open-loop phase length, so that
	// every workload collects enough samples at its own rate for the p90
	// to rest on at least minBeyond samples beyond it.
	length float64
}

// workloads are the traffic mixes BENCHMARK.json names; the rationale for
// each is recorded there.
var workloads = []workload{
	{name: "auth36-direct", grid: 36, spacing: 0.05, rate: 4.4, length: 1.3},
	{name: "mixed36-router", grid: 36, spacing: 0.05, shards: 3, rate: 3.0, length: 1.55},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Roster roles. Every workload enrolls setupUsers from enrollSessions and
// sends requests from requestSessions, held out from enrollment. Impostors
// are never enrolled. Late users enroll during the mixed workload's load.
var (
	setupUsers      = []int{1, 2, 3, 4, 5, 6, 7, 8}
	impostors       = []int{9, 10, 11, 12}
	lateUsers       = []int{13, 14, 15, 16, 17, 18, 19, 20}
	enrollSessions  = []int{1, 2}
	lateSessions    = []int{1, 2, 3}
	requestSessions = []int{4, 5, 6}
	// Late users are verified on one held-out session, which keeps the
	// mixed workload's verify pass short.
	lateRequestSessions = []int{4}
)

const (
	captureBeeps    = 4
	captureDistance = 0.7 // meters
	// controlEvery makes every controlEvery-th mixed-workload slot a
	// hintless status or model_info request instead of an authenticate.
	controlEvery = 20
	// directEnrolls is how many direct-workload open-loop slots re-send a
	// set-up capture as an enrollment without a retrain: each set-up
	// capture twice, and 16 samples above the median.
	directEnrolls = 32
	// idWidth is the fixed width of every request ID, so pre-built frames
	// can carry a fresh ID without being re-encoded.
	idWidth = 16
)

// frame is one pre-encoded request: the length-prefixed envelope bytes
// proto.WriteEnvelope produced, split around a fixed-width request-ID
// placeholder. Sending writes head, the request's own ID, then tail.
type frame struct {
	kind       proto.MsgType
	head, tail []byte
}

func (f *frame) size() int { return len(f.head) + idWidth + len(f.tail) }

var idPlaceholder = bytes.Repeat([]byte{'#'}, idWidth)

// buildFrame encodes a request through the public proto API, with user as
// the envelope's routing hint.
func buildFrame(kind proto.MsgType, user int, body any) (*frame, error) {
	env, err := proto.NewEnvelope(kind, string(idPlaceholder), body)
	if err != nil {
		return nil, err
	}
	env.User = user
	var buf bytes.Buffer
	if err := proto.WriteEnvelope(&buf, env); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	marker := append([]byte(`"request_id":"`), idPlaceholder...)
	i := bytes.Index(b, marker)
	if i < 0 || bytes.Count(b, marker) != 1 {
		return nil, fmt.Errorf("%s frame: request-ID placeholder not found exactly once", kind)
	}
	off := i + len(marker) - idWidth
	return &frame{kind: kind, head: b[:off:off], tail: b[off+idWidth:]}, nil
}

// capture is one rendered capture and its request frame.
type capture struct {
	subject int
	session int
	kind    proto.MsgType // authenticate, or enroll for roster captures
	genuine bool          // subject is enrolled by the time it is verified
	retrain bool          // enroll requests a background retrain
	wire    proto.CaptureWire
	frame   *frame
}

// slot is one scheduled open-loop arrival.
type slot struct {
	due  time.Duration // from the start of the phase
	kind proto.MsgType // authenticate, status, model_info or enroll
	// capture indexes inputs.captures for an authenticate. For an enroll
	// it indexes inputs.late[late].enroll, or inputs.setup when late < 0:
	// the direct workloads re-send set-up captures, which leaves the
	// model as set-up trained it.
	capture, late int
}

// lateUser is one user enrolled during the mixed workload's load. The
// last enrollment asks for a background retrain, which extends the model
// with this user alone.
type lateUser struct {
	user   int
	enroll []*capture
}

// inputs is everything a run sends, built from the seed before any clock
// starts: the servers receive only these frames.
type inputs struct {
	setup    []*capture // setup roster enrollments
	captures []*capture // authenticate captures; load covers the first nLoad
	nLoad    int
	late     []lateUser
	control  map[proto.MsgType]*frame // hintless status and model_info
	schedule []slot
}

// buildInputs renders every capture and frame and lays out the open-loop
// schedule. The same workload, seed and phase length give byte-identical
// frames and the same schedule.
func buildInputs(w workload, seed int64, phase time.Duration) (*inputs, error) {
	var jobs []*capture
	add := func(user, session int, kind proto.MsgType) *capture {
		c := &capture{subject: user, session: session, kind: kind}
		jobs = append(jobs, c)
		return c
	}
	in := &inputs{control: map[proto.MsgType]*frame{}}
	for _, u := range setupUsers {
		for _, s := range enrollSessions {
			in.setup = append(in.setup, add(u, s, proto.TypeEnrollRequest))
		}
	}
	for _, role := range []struct {
		users   []int
		genuine bool
	}{{setupUsers, true}, {impostors, false}} {
		for _, u := range role.users {
			for _, s := range requestSessions {
				c := add(u, s, proto.TypeAuthRequest)
				c.genuine = role.genuine
				in.captures = append(in.captures, c)
			}
		}
	}
	in.nLoad = len(in.captures)
	if w.shards > 0 {
		for _, u := range lateUsers {
			lu := lateUser{user: u}
			for _, s := range lateSessions {
				lu.enroll = append(lu.enroll, add(u, s, proto.TypeEnrollRequest))
			}
			lu.enroll[len(lu.enroll)-1].retrain = true
			in.late = append(in.late, lu)
			for _, s := range lateRequestSessions {
				c := add(u, s, proto.TypeAuthRequest)
				c.genuine = true
				in.captures = append(in.captures, c)
			}
		}
	}

	// Rendering and encoding are the expensive part of set-up; spread
	// them over the cores. Each capture depends only on the seed, so the
	// order of completion does not matter.
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	next := make(chan int)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = jobs[i].render(seed)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	var err error
	for _, kind := range []proto.MsgType{proto.TypeStatusRequest, proto.TypeModelInfoRequest} {
		if in.control[kind], err = buildFrame(kind, 0, nil); err != nil {
			return nil, err
		}
	}
	rng := newRand(seed)
	in.schedule = buildSchedule(w, rng, phase, in.nLoad, len(in.setup), len(in.late), len(lateSessions))
	return in, nil
}

// newRand is the benchmark's seeded source for schedules and orders.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// render simulates the capture and encodes it as its request frame.
func (c *capture) render(seed int64) error {
	cp, noiseOnly, err := echoimage.Simulate(echoimage.SimulateSpec{
		UserID: c.subject, DistanceM: captureDistance, Beeps: captureBeeps, Session: c.session, Seed: seed,
	})
	if err != nil {
		return fmt.Errorf("simulate user %d session %d: %w", c.subject, c.session, err)
	}
	c.wire = proto.CaptureWire{Beeps: cp.Beeps, SampleRate: cp.SampleRate, NoiseOnly: noiseOnly, Reference: cp.Reference}
	var body any = proto.AuthRequest{Capture: c.wire}
	if c.kind == proto.TypeEnrollRequest {
		body = proto.EnrollRequest{UserID: c.subject, Capture: c.wire, Retrain: c.retrain}
	}
	c.frame, err = buildFrame(c.kind, c.subject, body)
	return err
}

// buildSchedule lays out evenly spaced arrivals at the workload's rate
// with a seeded phase offset, cycling through seeded permutations of the
// load captures. In the direct workloads directEnrolls of the slots,
// spread evenly, re-send set-up captures (nSetup, seeded order) as
// enrollments. In the mixed workload every controlEvery-th arrival is a
// hintless status or model_info request, and the late users' enrollments
// (perLate each, users in seeded order) are added spread evenly over the
// phase.
func buildSchedule(w workload, rng *rand.Rand, phase time.Duration, nLoad, nSetup, nLate, perLate int) []slot {
	interval := time.Duration(float64(time.Second) / w.rate)
	n := int(phase / interval)
	offset := time.Duration(rng.Int63n(int64(interval)))
	var perm, setupPerm []int
	var out []slot
	control := []proto.MsgType{proto.TypeStatusRequest, proto.TypeModelInfoRequest}
	for i := range n {
		s := slot{due: offset + time.Duration(i)*interval, kind: proto.TypeAuthRequest}
		switch {
		case w.shards > 0 && i%controlEvery == controlEvery/2:
			s.kind = control[(i/controlEvery)%len(control)]
		case w.shards == 0 && (i+1)*directEnrolls/n > i*directEnrolls/n:
			if len(setupPerm) == 0 {
				setupPerm = rng.Perm(nSetup)
			}
			s.kind, s.late = proto.TypeEnrollRequest, -1
			s.capture, setupPerm = setupPerm[0], setupPerm[1:]
		default:
			if len(perm) == 0 {
				perm = rng.Perm(nLoad)
			}
			s.capture, perm = perm[0], perm[1:]
		}
		out = append(out, s)
	}
	if nLate > 0 {
		writes := nLate * perLate
		for j, li := range rng.Perm(nLate) {
			for k := range perLate {
				due := time.Duration((float64(j*perLate+k) + 0.5) / float64(writes) * float64(phase))
				out = append(out, slot{due: due, kind: proto.TypeEnrollRequest, late: li, capture: k})
			}
		}
		sort.SliceStable(out, func(a, b int) bool { return out[a].due < out[b].due })
	}
	return out
}

// fingerprint hashes every frame and the schedule, for the determinism
// tests and the run log.
func (in *inputs) fingerprint() string {
	h := sha256.New()
	write := func(f *frame) {
		h.Write(f.head)
		h.Write(f.tail)
	}
	for _, c := range in.setup {
		write(c.frame)
	}
	for _, c := range in.captures {
		write(c.frame)
	}
	for _, lu := range in.late {
		for _, c := range lu.enroll {
			write(c.frame)
		}
	}
	for _, s := range in.schedule {
		fmt.Fprintf(h, "%d %s %d %d\n", s.due, s.kind, s.capture, s.late)
	}
	return hex.EncodeToString(h.Sum(nil))
}
