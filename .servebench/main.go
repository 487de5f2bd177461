// Command servebench is the serving benchmark of the EchoImage
// authentication stack. It boots the echoimaged binary (and
// echoimage-router for the cluster workload) as server processes, drives
// one workload from seeded, pre-built request frames, checks every
// answer, and prints its metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Untraced runs (-trace 0) report the end-to-end metrics. Traced runs
// (-trace 1) also replay requests in process through each layer's public
// functions, write the replay's spans to a file, and report per-layer
// metrics. Build and run it through run.sh from the repository root:
//
//	bash .servebench/run.sh --workload auth36-direct --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"echoimage/internal/proto"
)

// metricSpec declares one reported metric as BENCHMARK.json lists it.
type metricSpec struct{ name, unit, better string }

// endToEndMetrics are reported by every untraced run.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s", "lower"},
	{"auth_p50_ms", "ms", "lower"},
	{"auth_p90_ms", "ms", "lower"},
	{"auth_sat_rps", "1/s", "higher"},
	{"auth_accuracy", "ratio", "higher"},
	{"enroll_p50_ms", "ms", "lower"},
	{"ok_ratio", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerMetrics are reported by every traced run. Timings are medians
// over the replayed requests unless named as a percentile.
var perLayerMetrics = []metricSpec{
	{"gen.lag_p90_ms", "ms", "lower"},
	{"proto.auth_frame_bytes", "count", "lower"},
	{"proto.encode_ms", "ms", "lower"},
	{"proto.read_ms", "ms", "lower"},
	{"proto.decode_body_ms", "ms", "lower"},
	{"proto.encode_response_ms", "ms", "lower"},
	{"core.preprocess_ms", "ms", "lower"},
	{"core.ranging_ms", "ms", "lower"},
	{"core.imaging_ms", "ms", "lower"},
	{"core.features_ms", "ms", "lower"},
	{"core.index_search_ms", "ms", "lower"},
	{"core.classify_ms", "ms", "lower"},
	{"core.images_per_capture", "count", "higher"},
	{"daemon.authenticate_ms", "ms", "lower"},
	{"daemon.residual_ms", "ms", "lower"},
	{"daemon.shed", "count", "lower"},
	{"cluster.hop_ms", "ms", "lower"},
	{"cluster.fanout_ms", "ms", "lower"},
	{"registry.add_images_ms", "ms", "lower"},
	{"registry.train_ms", "ms", "lower"},
	{"registry.extend_ms", "ms", "lower"},
	{"registry.flush_user_ms", "ms", "lower"},
	{"registry.extends", "count", "higher"},
	{"registry.full_retrains", "count", "lower"},
	{"trace.layer_sum_ms", "ms", "lower"},
	{"trace.gap_ms", "ms", "lower"},
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed for captures, frames and arrival schedules")
	seconds := flag.Int("seconds", 20, "base length of the open-loop phase; each workload scales it")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	binDir := flag.String("bin", "", "directory holding the echoimaged and echoimage-router binaries")
	workDir := flag.String("work", "", "directory for server logs, models, state and span files")
	summarize := flag.String("summarize", "", "instead of running, summarize the result lines of the files matching this glob")
	flag.Parse()
	if *summarize != "" {
		if err := summarizeRuns(os.Stdout, *summarize); err != nil {
			fmt.Fprintln(os.Stderr, "servebench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || *traceFlag < 0 || *traceFlag > 1 || *binDir == "" || *workDir == "" {
		if err == nil {
			err = fmt.Errorf("need -seconds >= 1, -trace 0 or 1, -bin and -work")
		}
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 2
	}
	// On SIGINT or SIGTERM, stop every server before exiting.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopLive()
		os.Exit(1)
	}()

	res, err := runBench(w, *seed, *seconds, *traceFlag == 1, *binDir, *workDir)
	stopLive()
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func runBench(w workload, seed int64, seconds int, trace bool, binDir, workDir string) (*result, error) {
	start := time.Now()
	cpuStart := readCPUTicks()
	phase := time.Duration(float64(seconds) * w.length * float64(time.Second))
	fmt.Fprintf(os.Stderr, "servebench: %s seed %d: rendering inputs\n", w.name, seed)
	in, err := buildInputs(w, seed, phase)
	if err != nil {
		return nil, err
	}
	runtime.GC() // rendering garbage should not be collected inside a measurement
	fmt.Fprintf(os.Stderr, "servebench: inputs ready in %.1f s\n", time.Since(start).Seconds())
	b := &bench{
		w: w, seed: seed, trace: trace, binDir: binDir, in: in,
		runDir:   filepath.Join(workDir, "runs", fmt.Sprintf("%s-seed%d-%d", w.name, seed, os.Getpid())),
		traceDir: filepath.Join(workDir, "traces"),
	}
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return nil, err
	}
	rep, err := b.run()
	if err != nil {
		return nil, err
	}

	var notes strings.Builder
	fmt.Fprintf(&notes, "workload %s, seed %d, trace %v: %d captures, %d open-loop arrivals over %v, inputs sha256 %s\n",
		w.name, seed, trace, len(in.captures), len(in.schedule), phase, in.fingerprint())
	fmt.Fprintf(&notes, "machine: nproc %d, cpu %s, %s; %s\n", runtime.NumCPU(), cpuModel(), runtime.Version(), cpuStart.share(readCPUTicks()))
	var metrics map[string]metric
	specs := endToEndMetrics
	if trace {
		metrics, err = b.perLayer(rep, &notes)
		specs = perLayerMetrics
	} else {
		metrics, err = b.endToEnd(rep, &notes)
	}
	if err != nil {
		return nil, err
	}
	if err := checkDeclared(metrics, specs); err != nil {
		return nil, err
	}
	for _, g := range b.gate {
		fmt.Fprintf(&notes, "CORRECTNESS GATE FAILED: %s\n", g)
	}
	fmt.Print(notes.String())
	attempted, failed := counts(rep)
	res := &result{Correct: len(b.gate) == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	if res.Correct {
		// Keep logs and models only when something needs explaining.
		if err := os.RemoveAll(b.runDir); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// perLayer derives the traced run's metrics.
func (b *bench) perLayer(rep *runReport, notes *strings.Builder) (map[string]metric, error) {
	t := rep.trace
	m := map[string]metric{}
	lag, err := percentile(rep.lags, 0.9)
	if err != nil {
		return nil, fmt.Errorf("gen.lag_p90_ms: %w", err)
	}
	m["gen.lag_p90_ms"] = metric{lag.Value, "ms"}
	fmt.Fprintf(notes, "gen.lag_p90_ms %.3f ms (%d arrivals, %d beyond)\n", lag.Value, lag.Samples, lag.Beyond)
	var sizes []float64
	for _, c := range b.in.captures {
		sizes = append(sizes, float64(c.frame.size()))
	}
	if m["proto.auth_frame_bytes"], err = medianMetric(sizes, "count"); err != nil {
		return nil, err
	}
	for name, xs := range t.layers {
		if strings.HasPrefix(name, "rt.") {
			continue
		}
		v, err := medianMetric(xs, "ms")
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		m[name+"_ms"] = v
	}
	for name, v := range t.counts {
		m[name] = metric{v, "count"}
	}
	// The blocking path of one authenticate as the server sees it; the
	// generator's encode is outside it, since frames are pre-built.
	path := []string{
		"proto.read", "proto.decode_body", "core.preprocess", "core.ranging", "core.imaging",
		"core.features", "core.index_search", "core.classify", "proto.encode_response", "daemon.residual",
	}
	if b.w.shards > 0 {
		path = append(path, "cluster.hop")
	}
	var sum float64
	for _, name := range path {
		sum += m[name+"_ms"].Value
	}
	m["trace.layer_sum_ms"] = metric{sum, "ms"}
	untraced, err := percentile(latencies(rep.load, proto.TypeAuthRequest), 0.5)
	if err != nil {
		return nil, fmt.Errorf("trace.gap_ms: %w", err)
	}
	m["trace.gap_ms"] = metric{untraced.Value - sum, "ms"}
	spanFile, err := b.writeSpans(t.tr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(notes, "spans: %d in %s\n", len(t.tr.spans), spanFile)
	fmt.Fprintf(notes, "per-layer timings are medians over %d replayed requests; the registry layer over its own calls\n", replayCaptures)
	fmt.Fprintf(notes, "trace gap: open-loop authenticate p50 %.3f ms (%d samples) minus replayed layer sum %.3f ms = %.3f ms\n",
		untraced.Value, untraced.Samples, sum, untraced.Value-sum)
	for _, pl := range perLayerMetrics {
		fmt.Fprintf(notes, "%s %.4f %s\n", pl.name, m[pl.name].Value, m[pl.name].Unit)
	}
	return m, nil
}

// checkDeclared makes sure a run reports exactly the declared metrics,
// each in its declared unit, so the result line cannot drift from the
// tables that the BENCHMARK.json test compares.
func checkDeclared(m map[string]metric, specs []metricSpec) error {
	for _, sp := range specs {
		v, ok := m[sp.name]
		if !ok {
			return fmt.Errorf("run did not measure %s", sp.name)
		}
		if v.Unit != sp.unit {
			return fmt.Errorf("%s measured in %s, declared in %s", sp.name, v.Unit, sp.unit)
		}
	}
	if len(m) != len(specs) {
		return fmt.Errorf("run measured %d metrics, %d are declared", len(m), len(specs))
	}
	return nil
}

func medianMetric(xs []float64, unit string) (metric, error) {
	v, err := median(xs)
	return metric{v, unit}, err
}

// cpuTicks is the machine-wide CPU time split from /proc/stat.
type cpuTicks struct{ busy, steal, total float64 }

func readCPUTicks() cpuTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	var t cpuTicks
	// cpu user nice system idle iowait irq softirq steal ...
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			continue
		}
		t.total += v
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			t.steal += v
		default:
			t.busy += v
		}
	}
	return t
}

// share describes the machine's CPU use since t: a run that shared its
// cores with other work, or lost time to the hypervisor, shows it here.
func (t cpuTicks) share(now cpuTicks) string {
	total := now.total - t.total
	if total <= 0 {
		return "cpu use unknown"
	}
	return fmt.Sprintf("during the run the machine was %.0f%% busy and lost %.1f%% to steal",
		100*(now.busy-t.busy)/total, 100*(now.steal-t.steal)/total)
}

// cpuModel reads the first CPU model name, for the run's machine line.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
