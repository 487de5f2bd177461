package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"echoimage/internal/array"
	"echoimage/internal/core"
	"echoimage/internal/daemon"
	"echoimage/internal/proto"
	"echoimage/internal/registry"
)

// replayCaptures is how many captures the traced run replays: enough for
// every per-layer median to have minBeyond samples above it.
const replayCaptures = 2*minBeyond + 1

// span is one timed call in the traced replay. Spans of one request share
// its request ID; Parent is 0 for a request's root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request string `json:"request_id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(name, req string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Request: req, Name: name,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0)),
	})
	return len(t.spans)
}

// time runs fn inside a span and returns the span's duration in ms.
func (t *tracer) time(name, req string, parent int, fn func(id int)) float64 {
	start := time.Now()
	id := t.add(name, req, parent, start, start)
	fn(id)
	end := time.Now()
	t.spans[id-1].EndNs = int64(end.Sub(t.t0))
	return float64(end.Sub(start)) / float64(time.Millisecond)
}

// selfTimes sets each span's self time: its duration minus the part of
// its interval that its children cover.
func (t *tracer) selfTimes() {
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNs, s.EndNs})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfNs = s.EndNs - s.StartNs - covered(children[s.ID], s.StartNs, s.EndNs)
	}
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, v := range iv {
		start, end := max(v[0], cur), min(v[1], hi)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}

// stageSpans turns core's stage timings into child spans. A stage is
// reported when it ends, so its span ends at the report.
type stageSpans struct {
	t      *tracer
	req    string
	parent int
}

func (s stageSpans) RecordStage(stage string, d time.Duration) {
	end := time.Now()
	s.t.add("core."+stage, s.req, s.parent, end.Add(-d), end)
}

// traceReport holds the per-layer samples of a traced run.
type traceReport struct {
	layers map[string][]float64 // per-request sums of a layer's spans, ms
	counts map[string]float64
	tr     *tracer
}

// replayLayers are the per-request layers summed per replayed request.
var replayLayers = []string{
	"proto.encode", "proto.read", "proto.decode_body", "proto.encode_response",
	"core.preprocess", "core.ranging", "core.imaging", "core.features", "core.index_search", "core.classify",
	"daemon.authenticate", "rt.direct", "rt.router",
}

// replay is the traced run's second half: it replays captures in process
// through each layer's public functions and round-trips them, one at a
// time, against the idle servers.
func (b *bench) replay(s *setup, rep *runReport) (*traceReport, error) {
	ctx := context.Background()
	tr := &tracer{t0: time.Now()}
	out := &traceReport{layers: map[string][]float64{}, counts: map[string]float64{}, tr: tr}

	cfg := core.DefaultConfig()
	cfg.GridRows, cfg.GridCols, cfg.GridSpacingM = b.w.grid, b.w.grid, b.w.spacing
	sys, err := core.NewSystem(cfg, array.ReSpeaker())
	if err != nil {
		return nil, err
	}
	// The models each daemon persisted through -model, loaded both bare
	// and behind an in-process daemon.Server.
	var auths []*core.Authenticator
	var servers []*daemon.Server
	for i := range s.dep.daemons {
		a, srv, err := loadModel(sys, filepath.Join(s.dir, fmt.Sprintf("model-%d.bin", i)))
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		auths, servers = append(auths, a), append(servers, srv)
	}

	// Direct workloads get a one-shard router for the idle hop, so every
	// workload reports the cluster layer.
	router := s.dep.router
	if router == nil {
		if router, _, err = startRouter(b.binDir, s.dir, s.dep.daemons); err != nil {
			return nil, err
		}
		defer router.stop()
	}
	viaRouter, err := b.dial(router.addr)
	if err != nil {
		return nil, err
	}
	defer viaRouter.close()
	var direct []*client
	for _, d := range s.dep.daemons {
		c, err := b.dial(d.addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		direct = append(direct, c)
	}

	want := map[int]decision{}
	for _, o := range rep.verify {
		want[o.capture] = decision{o.auth.Accepted, o.auth.UserID}
	}
	order := newRand(b.seed + 2).Perm(len(b.in.captures))
	var residual, hop []float64
	for k, ci := range order[:min(replayCaptures, len(order))] {
		cp := b.in.captures[ci]
		owner := s.dep.owner(cp.subject)
		req := fmt.Sprintf("replay-%02d", k)
		layer := map[string]float64{}
		var fail error
		tr.time("request", req, 0, func(root int) {
			env, err := proto.NewEnvelope(proto.TypeAuthRequest, req, proto.AuthRequest{Capture: cp.wire})
			if err != nil {
				fail = err
				return
			}
			var buf bytes.Buffer
			layer["proto.encode"] = tr.time("proto.encode", req, root, func(int) { err = proto.WriteEnvelope(&buf, env) })
			if err != nil {
				fail = err
				return
			}
			var got *proto.Envelope
			layer["proto.read"] = tr.time("proto.read", req, root, func(int) { got, err = proto.Read(&buf) })
			if err != nil {
				fail = err
				return
			}
			var areq proto.AuthRequest
			layer["proto.decode_body"] = tr.time("proto.decode_body", req, root, func(int) { err = proto.DecodeBody(got, &areq) })
			if err != nil {
				fail = err
				return
			}
			var res *core.ProcessResult
			tr.time("core.process", req, root, func(id int) {
				c := &core.Capture{Beeps: areq.Capture.Beeps, SampleRate: areq.Capture.SampleRate, Reference: areq.Capture.Reference}
				res, err = sys.ProcessRecordedContext(ctx, c, areq.Capture.NoiseOnly, stageSpans{tr, req, id})
			})
			if err != nil {
				fail = err
				return
			}
			out.counts["core.images_per_capture"] = float64(len(res.Images))
			var dec core.AuthResult
			tr.time("core.authenticate", req, root, func(id int) {
				dec, err = auths[owner].AuthenticateMajorityRecorded(res.Images, stageSpans{tr, req, id})
			})
			if err != nil {
				fail = err
				return
			}
			if got := (decision{dec.Accepted, dec.UserID}); got != want[ci] {
				b.failf("replay of capture %d decided %v in process but %v over the wire", ci, got, want[ci])
			}
			var dresp *proto.AuthResponse
			layer["daemon.authenticate"] = tr.time("daemon.authenticate", req, root, func(int) {
				dresp, err = servers[owner].Authenticate(ctx, &areq)
			})
			if err != nil {
				fail = err
				return
			}
			layer["proto.encode_response"] = tr.time("proto.encode_response", req, root, func(int) {
				renv, rerr := proto.NewEnvelope(proto.TypeAuthResponse, req, dresp)
				if rerr == nil {
					rerr = proto.WriteEnvelope(io.Discard, renv)
				}
				err = rerr
			})
			if err != nil {
				fail = err
				return
			}
			var code string
			layer["rt.direct"] = tr.time("rt.direct", req, root, func(int) { code = direct[owner].call(cp.frame, nil) })
			if code == "" {
				layer["rt.router"] = tr.time("rt.router", req, root, func(int) { code = viaRouter.call(cp.frame, nil) })
			}
			if code != "" {
				fail = fmt.Errorf("idle round trip answered %s", code)
			}
		})
		if fail != nil {
			return nil, fmt.Errorf("replay of capture %d: %w", ci, fail)
		}
		// Sum the stage spans core reported; features runs once per image.
		for _, sp := range tr.spans {
			if sp.Request == req && strings.HasPrefix(sp.Name, "core.") && sp.Name != "core.process" && sp.Name != "core.authenticate" {
				layer[sp.Name] += float64(sp.EndNs-sp.StartNs) / float64(time.Millisecond)
			}
		}
		for _, name := range replayLayers {
			out.layers[name] = append(out.layers[name], layer[name])
		}
		residual = append(residual, layer["rt.direct"]-layer["proto.read"]-layer["proto.decode_body"]-
			layer["daemon.authenticate"]-layer["proto.encode_response"])
		hop = append(hop, layer["rt.router"]-layer["rt.direct"])
	}
	out.layers["daemon.residual"] = residual
	out.layers["cluster.hop"] = hop

	statusFrame := b.in.control[proto.TypeStatusRequest]
	for k := range replayCaptures {
		var code string
		ms := tr.time("cluster.fanout", fmt.Sprintf("fanout-%02d", k), 0, func(int) { code = viaRouter.call(statusFrame, nil) })
		if code != "" {
			return nil, fmt.Errorf("status fan-out answered %s", code)
		}
		out.layers["cluster.fanout"] = append(out.layers["cluster.fanout"], ms)
	}

	if err := b.registryLayer(sys, tr, out); err != nil {
		return nil, err
	}
	for _, d := range s.dep.daemons {
		m, err := d.scrape()
		if err != nil {
			return nil, err
		}
		extended := m["echoimage_registry_trains_extended_total"]
		out.counts["registry.extends"] += extended
		out.counts["registry.full_retrains"] += m["echoimage_registry_train_seconds_count"] - extended
	}
	shed := 0
	for _, o := range rep.load {
		if o.code == proto.CodeOverloaded {
			shed++
		}
	}
	out.counts["daemon.shed"] = float64(shed)
	tr.selfTimes()
	return out, nil
}

// loadModel reads a persisted model twice: as a bare authenticator and
// into an in-process daemon.Server.
func loadModel(sys *core.System, path string) (*core.Authenticator, *daemon.Server, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("read persisted model: %w", err)
	}
	a, err := core.LoadAuthenticator(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	srv := daemon.New(sys, core.DefaultAuthConfig(), nil)
	if err := srv.LoadModel(bytes.NewReader(raw)); err != nil {
		srv.Close()
		return nil, nil, err
	}
	return a, srv, nil
}

// registryLayer times the registry's public calls in process: adding the
// set-up roster's images, the full train, extending with one new user,
// and flushing users to a state directory.
func (b *bench) registryLayer(sys *core.System, tr *tracer, out *traceReport) error {
	ctx := context.Background()
	reg := registry.New(core.DefaultAuthConfig(), registry.Options{StateDir: filepath.Join(b.runDir, "registry-state")})
	defer reg.Close()
	process := func(cp *capture) ([]*core.AcousticImage, error) {
		c := &core.Capture{Beeps: cp.wire.Beeps, SampleRate: cp.wire.SampleRate, Reference: cp.wire.Reference}
		res, err := sys.Process(c, cp.wire.NoiseOnly)
		if err != nil {
			return nil, err
		}
		return res.Images, nil
	}
	const req = "registry"
	for _, cp := range b.in.setup {
		imgs, err := process(cp)
		if err != nil {
			return err
		}
		ms := tr.time("registry.add_images", req, 0, func(int) { err = reg.AddImages(cp.subject, imgs) })
		if err != nil {
			return err
		}
		out.layers["registry.add_images"] = append(out.layers["registry.add_images"], ms)
	}
	var err error
	out.layers["registry.train"] = []float64{tr.time("registry.train", req, 0, func(int) { err = reg.Retrain(ctx) })}
	if err != nil {
		return err
	}
	// An impostor's first request capture enrolls them as a new user:
	// only new images changed, so the retrain must extend.
	var newcomer *capture
	for _, cp := range b.in.captures {
		if !cp.genuine {
			newcomer = cp
			break
		}
	}
	imgs, err := process(newcomer)
	if err != nil {
		return err
	}
	if err := reg.AddImages(newcomer.subject, imgs); err != nil {
		return err
	}
	out.layers["registry.extend"] = []float64{tr.time("registry.extend", req, 0, func(int) { err = reg.Retrain(ctx) })}
	if err != nil {
		return err
	}
	if snap := reg.Snapshot(); snap == nil || !snap.Info.Extended {
		b.failf("registry retrain after one new user did not take the extend path")
	}
	for _, u := range setupUsers {
		ms := tr.time("registry.flush_user", req, 0, func(int) { _, _, err = reg.FlushUser(u) })
		if err != nil {
			return err
		}
		out.layers["registry.flush_user"] = append(out.layers["registry.flush_user"], ms)
	}
	return nil
}

// writeSpans writes the span file of a traced run.
func (b *bench) writeSpans(t *tracer) (string, error) {
	if err := os.MkdirAll(b.traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(b.traceDir, fmt.Sprintf("%s-seed%d.json", b.w.name, b.seed))
	raw, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{b.w.name, b.seed, t.spans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
