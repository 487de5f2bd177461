package main

import (
	"bytes"
	"testing"
	"time"

	"echoimage/internal/proto"
)

func TestInputsDeterministicPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("renders three full input sets")
	}
	w, err := findWorkload("mixed36-router")
	if err != nil {
		t.Fatal(err)
	}
	const phase = 10 * time.Second
	fingerprint := func(seed int64) string {
		in, err := buildInputs(w, seed, phase)
		if err != nil {
			t.Fatal(err)
		}
		return in.fingerprint()
	}
	a, b, c := fingerprint(7), fingerprint(7), fingerprint(8)
	if a != b {
		t.Errorf("seed 7 built different frames or schedules: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 built identical frames and schedules")
	}
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		build := func(seed int64) []slot {
			in := &inputs{}
			in.schedule = buildSchedule(w, newRand(seed), 20*time.Second, 36, 16, 8, 3)
			return in.schedule
		}
		a, b, c := build(3), build(3), build(4)
		if !equalSlots(a, b) {
			t.Errorf("%s: seed 3 gave two schedules", w.name)
		}
		if equalSlots(a, c) {
			t.Errorf("%s: seeds 3 and 4 gave the same schedule", w.name)
		}
	}
}

func equalSlots(a, b []slot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestScheduleShape(t *testing.T) {
	for _, w := range workloads {
		phase := time.Duration(25 * w.length * float64(time.Second)) // as --seconds 25 runs it
		nLate, wantEnrolls := 0, directEnrolls
		if w.shards > 0 {
			nLate, wantEnrolls = 8, 3*8
		}
		sched := buildSchedule(w, newRand(1), phase, 36, 16, nLate, 3)
		kinds := map[proto.MsgType]int{}
		seen := map[int]int{}
		setupSeen := map[int]int{}
		for i, s := range sched {
			kinds[s.kind]++
			if s.due < 0 || s.due >= phase {
				t.Errorf("%s: slot %d due at %v, outside the phase", w.name, i, s.due)
			}
			if i > 0 && s.due < sched[i-1].due {
				t.Errorf("%s: slot %d is due before slot %d", w.name, i, i-1)
			}
			switch {
			case s.kind == proto.TypeAuthRequest:
				seen[s.capture]++
			case s.kind == proto.TypeEnrollRequest && (s.late < 0) != (w.shards == 0):
				t.Errorf("%s: slot %d = %+v enrolls the wrong kind of user", w.name, i, s)
			case s.kind == proto.TypeEnrollRequest && s.late < 0:
				setupSeen[s.capture]++
				// Set-up re-enrollments are spread evenly among the
				// authenticates, not bunched.
				if i > 0 && sched[i-1].kind == proto.TypeEnrollRequest {
					t.Errorf("%s: slots %d and %d both enroll", w.name, i-1, i)
				}
			}
		}
		if kinds[proto.TypeEnrollRequest] != wantEnrolls {
			t.Errorf("%s: %d enroll slots, want %d", w.name, kinds[proto.TypeEnrollRequest], wantEnrolls)
		}
		if w.shards == 0 && len(setupSeen) != 16 {
			t.Errorf("%s: enroll slots re-send %d of the 16 set-up captures", w.name, len(setupSeen))
		}
		if got := kinds[proto.TypeStatusRequest] + kinds[proto.TypeModelInfoRequest]; (got > 0) != (w.shards > 0) {
			t.Errorf("%s: %d control slots", w.name, got)
		}
		// Captures are drawn in whole permutations, so no capture is sent
		// twice more often than another.
		lo, hi := len(sched), 0
		for c := range 36 {
			lo, hi = min(lo, seen[c]), max(hi, seen[c])
		}
		if hi-lo > 1 {
			t.Errorf("%s: captures sent between %d and %d times", w.name, lo, hi)
		}
	}
}

func TestFrameCarriesFreshRequestID(t *testing.T) {
	f, err := buildFrame(proto.TypeAuthRequest, 3, proto.AuthRequest{Capture: proto.CaptureWire{
		Beeps: [][][]float64{{{0.5, -0.25}}}, SampleRate: 48000,
	}})
	if err != nil {
		t.Fatal(err)
	}
	id := "z000000000000042"
	var buf bytes.Buffer
	buf.Write(f.head)
	buf.WriteString(id)
	buf.Write(f.tail)
	if buf.Len() != f.size() {
		t.Errorf("frame size %d, wrote %d bytes", f.size(), buf.Len())
	}
	env, err := proto.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if env.RequestID != id || env.User != 3 || env.Type != proto.TypeAuthRequest {
		t.Errorf("decoded envelope %+v", env)
	}
	var req proto.AuthRequest
	if err := proto.DecodeBody(env, &req); err != nil || req.Capture.Beeps[0][0][1] != -0.25 {
		t.Errorf("decoded body %+v, %v", req, err)
	}
}
