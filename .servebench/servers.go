package main

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"echoimage/internal/cluster"
)

var (
	listenLine = regexp.MustCompile(`listening on (\S+)`)
	adminLine  = regexp.MustCompile(`admin endpoints on http://(\S+)`)
)

// startTimeout bounds how long a server may take to report its listeners.
const startTimeout = time.Minute

// live holds every started server that has not exited, so a signal can
// stop them all.
var live = struct {
	sync.Mutex
	procs map[*proc]bool
}{procs: map[*proc]bool{}}

// stopLive stops every server still running.
func stopLive() {
	live.Lock()
	var ps []*proc
	for p := range live.procs {
		ps = append(ps, p)
	}
	live.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// proc is one server process started by the benchmark. Its stderr goes to
// a log file; the listener addresses are read from the log lines, so
// every server binds port 0 and runs never collide.
type proc struct {
	name        string
	cmd         *exec.Cmd
	addr, admin string
	exited      chan struct{} // closed once the process has been waited for
}

func startProc(name, bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	// The kernel kills the server if the benchmark dies without cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{})}
	live.Lock()
	live.procs[p] = true
	live.Unlock()
	ready := make(chan [2]string, 1)
	go func() {
		var addr, admin string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if m := listenLine.FindStringSubmatch(line); m != nil && addr == "" {
				addr = m[1]
			}
			if m := adminLine.FindStringSubmatch(line); m != nil && admin == "" {
				admin = m[1]
				if addr != "" {
					ready <- [2]string{addr, admin}
				}
			}
		}
		// Wait only after every read from the pipe has completed.
		_ = cmd.Wait()
		logf.Close()
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
		close(p.exited)
	}()
	select {
	case a := <-ready:
		p.addr, p.admin = a[0], a[1]
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before listening; see %s", name, logPath)
	case <-time.After(startTimeout):
		p.stop()
		return nil, fmt.Errorf("%s did not listen within %v; see %s", name, startTimeout, logPath)
	}
}

// stop asks the server to shut down and waits for it, killing it if it
// outlives its shutdown grace.
func (p *proc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// peakRSSKB reads the process's resident-set high-water mark.
func (p *proc) peakRSSKB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM in /proc status", p.name)
}

// scrape sums each metric family on the server's admin /metrics page.
func (p *proc) scrape() (map[string]float64, error) {
	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + p.admin + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", p.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", p.name, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(series, "{")
		v, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// deployment is one set of running servers: a daemon, or daemons behind
// a router.
type deployment struct {
	daemons []*proc
	shards  []string // shard IDs, parallel to daemons, when routed
	router  *proc
}

// entry is the address clients send requests to.
func (d *deployment) entry() string {
	if d.router != nil {
		return d.router.addr
	}
	return d.daemons[0].addr
}

// owner returns the daemon that owns a user: the one daemon, or the
// router's consistent-hash owner.
func (d *deployment) owner(user int) int {
	if len(d.shards) == 0 {
		return 0
	}
	owner := cluster.BuildRing(d.shards, cluster.DefaultVnodes).Owner(user)
	for i, id := range d.shards {
		if id == owner {
			return i
		}
	}
	return 0
}

func (d *deployment) procs() []*proc {
	ps := append([]*proc(nil), d.daemons...)
	if d.router != nil {
		ps = append(ps, d.router)
	}
	return ps
}

// peakRSSMB sums the servers' resident-set high-water marks.
func (d *deployment) peakRSSMB() (float64, error) {
	var total float64
	for _, p := range d.procs() {
		kb, err := p.peakRSSKB()
		if err != nil {
			return 0, err
		}
		total += kb
	}
	return total / 1024, nil
}

// stop shuts every server down, the router first, and waits for them.
func (d *deployment) stop() {
	if d.router != nil {
		d.router.stop()
	}
	var wg sync.WaitGroup
	for _, p := range d.daemons {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.stop()
		}()
	}
	wg.Wait()
}

// startDaemons boots n echoimaged processes in parallel, each with its own
// model file and state directory under dir.
func startDaemons(binDir, dir string, w workload, n int) ([]*proc, error) {
	procs := make([]*proc, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := []string{
				"-listen", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
				"-grid", strconv.Itoa(w.grid), "-spacing", strconv.FormatFloat(w.spacing, 'g', -1, 64),
				"-model", filepath.Join(dir, fmt.Sprintf("model-%d.bin", i)),
			}
			if w.shards > 0 {
				args = append(args, "-state-dir", filepath.Join(dir, fmt.Sprintf("state-%d", i)))
			}
			procs[i], errs[i] = startProc(fmt.Sprintf("echoimaged-%d", i), filepath.Join(binDir, "echoimaged"),
				filepath.Join(dir, fmt.Sprintf("echoimaged-%d.log", i)), args...)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, p := range procs {
			if p != nil {
				p.stop()
			}
		}
		return nil, err
	}
	return procs, nil
}

// startRouter boots echoimage-router in front of the given daemons.
func startRouter(binDir, dir string, daemons []*proc) (*proc, []string, error) {
	args := []string{"-listen", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0"}
	var ids []string
	for i, p := range daemons {
		id := fmt.Sprintf("s%d", i)
		ids = append(ids, id)
		args = append(args, "-shard", fmt.Sprintf("%s=%s,%s", id, p.addr, p.admin))
	}
	r, err := startProc("echoimage-router", filepath.Join(binDir, "echoimage-router"), filepath.Join(dir, "router.log"), args...)
	return r, ids, err
}
