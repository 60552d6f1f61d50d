// Package cluster launches and torments fleets of real pushpulld
// processes: the wall-clock, multi-process counterpart of the simulated
// internal/scenario harness. Where scenario injects faults into a simnet
// and inspects peers through pointers, cluster builds the daemon binary,
// starts N OS processes on loopback, drives sustained client traffic
// through the HTTP edge, injects real faults (SIGKILL, recovery from the
// write-ahead log on the same address, peer-list churn), and then checks
// the same invariants — eventual delivery, clock/store convergence, no
// duplicate application — against state scraped over HTTP (/v1/state).
//
// The package is also the example substrate: examples/httpcluster uses
// BuildDaemon and Proc to run a two-daemon demo session.
package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// BuildDaemon compiles cmd/pushpulld into dir and returns the binary path.
// The go toolchain resolves the module root from this package's source
// location, so callers may run from any working directory.
func BuildDaemon(dir string) (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "pushpulld")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pushpulld")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("cluster: build pushpulld: %v\n%s", err, out)
	}
	return bin, nil
}

// moduleRoot locates the repository root via `go env GOMOD`.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("cluster: go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("cluster: not inside a module (GOMOD=%q)", gomod)
	}
	return filepath.Dir(gomod), nil
}

// ProcConfig parameterises one daemon process. Zero values mean ephemeral
// loopback ports and the daemon's own defaults.
type ProcConfig struct {
	// HTTPAddr and GossipAddr are listen addresses; "" picks an ephemeral
	// loopback port. Restarts pass the previous concrete addresses so the
	// process comes back reachable under its old identity.
	HTTPAddr   string
	GossipAddr string
	// Peers are gossip addresses taught at startup.
	Peers []string
	// WALDir, when non-empty, enables the daemon's write-ahead log: every
	// acknowledged write is on disk before the HTTP response, and a restart
	// recovers from this directory alone (see KillAndRecover).
	WALDir string
	// Fsync is the WAL fsync policy (always/interval/never); "" leaves the
	// daemon default.
	Fsync string
	// Seed pins the daemon's randomness; 0 draws from crypto/rand.
	Seed int64
	// PullInterval is the anti-entropy period (0 = daemon default 30s).
	PullInterval time.Duration
	// Fanout caps push targets (0 = daemon default).
	Fanout int
	// PF is the geometric forwarding base; 0 means "leave at default",
	// >= 1 forwards always.
	PF float64
	// Acks enables the §6 acknowledgement machinery.
	Acks bool
}

func (c ProcConfig) args() []string {
	httpAddr, gossipAddr := c.HTTPAddr, c.GossipAddr
	if httpAddr == "" {
		httpAddr = "127.0.0.1:0"
	}
	if gossipAddr == "" {
		gossipAddr = "127.0.0.1:0"
	}
	args := []string{"-http", httpAddr, "-gossip", gossipAddr}
	if len(c.Peers) > 0 {
		args = append(args, "-peers", strings.Join(c.Peers, ","))
	}
	if c.WALDir != "" {
		args = append(args, "-wal-dir", c.WALDir)
	}
	if c.Fsync != "" {
		args = append(args, "-fsync", c.Fsync)
	}
	if c.Seed != 0 {
		args = append(args, "-seed", strconv.FormatInt(c.Seed, 10))
	}
	if c.PullInterval > 0 {
		args = append(args, "-pull-interval", c.PullInterval.String())
	}
	if c.Fanout > 0 {
		args = append(args, "-fanout", strconv.Itoa(c.Fanout))
	}
	if c.PF > 0 {
		args = append(args, "-pf", strconv.FormatFloat(c.PF, 'g', -1, 64))
	}
	if c.Acks {
		args = append(args, "-acks")
	}
	return args
}

// Proc is one running daemon process.
type Proc struct {
	// Cfg is the configuration the process was started with.
	Cfg ProcConfig
	// HTTPAddr and GossipAddr are the concrete bound addresses parsed from
	// the daemon's ready line.
	HTTPAddr   string
	GossipAddr string

	cmd  *exec.Cmd
	mu   sync.Mutex
	done chan struct{} // closed when the process has been reaped
	err  error
}

// readyTimeout bounds how long StartProc waits for the daemon's ready
// line.
const readyTimeout = 20 * time.Second

// StartProc launches one daemon and blocks until it prints its ready line.
// Remaining stdout and all stderr are copied to logw (pass io.Discard or a
// test logger).
func StartProc(bin string, cfg ProcConfig, logw io.Writer) (*Proc, error) {
	cmd := exec.Command(bin, cfg.args()...)
	cmd.Stderr = logw
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("cluster: stdout pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("cluster: start %s: %v", bin, err)
	}
	p := &Proc{Cfg: cfg, cmd: cmd, done: make(chan struct{})}

	type ready struct {
		httpAddr, gossipAddr string
		err                  error
	}
	readyCh := make(chan ready, 1)
	go func() {
		r := bufio.NewReader(stdout)
		line, err := r.ReadString('\n')
		if err != nil {
			readyCh <- ready{err: fmt.Errorf("cluster: daemon exited before ready: %v", err)}
			return
		}
		httpAddr, gossipAddr, err := parseReadyLine(line)
		readyCh <- ready{httpAddr: httpAddr, gossipAddr: gossipAddr, err: err}
		// Keep draining so the child never blocks on a full pipe.
		_, _ = io.Copy(logw, r)
	}()
	go func() {
		err := cmd.Wait()
		p.mu.Lock()
		p.err = err
		p.mu.Unlock()
		close(p.done)
	}()

	select {
	case r := <-readyCh:
		if r.err != nil {
			_ = p.Kill()
			return nil, r.err
		}
		p.HTTPAddr, p.GossipAddr = r.httpAddr, r.gossipAddr
		return p, nil
	case <-time.After(readyTimeout):
		_ = p.Kill()
		return nil, fmt.Errorf("cluster: daemon not ready within %v", readyTimeout)
	}
}

// parseReadyLine extracts the bound addresses from
// "pushpulld ready http=H:P gossip=H:P".
func parseReadyLine(line string) (httpAddr, gossipAddr string, err error) {
	for _, f := range strings.Fields(strings.TrimSpace(line)) {
		if v, ok := strings.CutPrefix(f, "http="); ok {
			httpAddr = v
		}
		if v, ok := strings.CutPrefix(f, "gossip="); ok {
			gossipAddr = v
		}
	}
	if httpAddr == "" || gossipAddr == "" {
		return "", "", fmt.Errorf("cluster: malformed ready line %q", line)
	}
	return httpAddr, gossipAddr, nil
}

// Kill delivers SIGKILL — the chaos path: no drain, the process just
// stops — and reaps the child.
func (p *Proc) Kill() error {
	_ = p.cmd.Process.Kill()
	<-p.done
	return nil
}

// Stop delivers SIGTERM (graceful drain: readiness dropped, listeners
// drained) and waits for exit up to the timeout, escalating to SIGKILL.
func (p *Proc) Stop(timeout time.Duration) error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.err
	case <-time.After(timeout):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("cluster: %s did not drain within %v", p.HTTPAddr, timeout)
	}
}

// Exited reports whether the process has terminated.
func (p *Proc) Exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Cluster is a fleet of daemons plus one HTTP client per member.
type Cluster struct {
	Bin     string
	Procs   []*Proc
	Clients []*Client
	logw    io.Writer
}

// Launch starts n daemons on ephemeral loopback ports with the given base
// configuration (addresses and peers are ignored; each member gets seed
// base.Seed+i) and then teaches every member the full gossip peer list
// over HTTP. On error, already-started processes are killed.
func Launch(bin string, n int, base ProcConfig, logw io.Writer) (*Cluster, error) {
	if logw == nil {
		logw = io.Discard
	}
	c := &Cluster{Bin: bin, logw: logw}
	for i := 0; i < n; i++ {
		cfg := base
		cfg.HTTPAddr, cfg.GossipAddr, cfg.Peers = "", "", nil
		if base.Seed != 0 {
			cfg.Seed = base.Seed + int64(i)
		}
		if base.WALDir != "" {
			cfg.WALDir = fmt.Sprintf("%s.%d", base.WALDir, i)
		}
		p, err := StartProc(bin, cfg, logw)
		if err != nil {
			c.Shutdown()
			return nil, fmt.Errorf("cluster: member %d: %w", i, err)
		}
		c.Procs = append(c.Procs, p)
		c.Clients = append(c.Clients, NewClient(p.HTTPAddr))
	}
	peers := c.GossipAddrs()
	for i, cl := range c.Clients {
		if _, err := cl.AddPeers(peers); err != nil {
			c.Shutdown()
			return nil, fmt.Errorf("cluster: wire member %d: %w", i, err)
		}
	}
	return c, nil
}

// GossipAddrs returns every member's gossip address in member order.
func (c *Cluster) GossipAddrs() []string {
	addrs := make([]string, len(c.Procs))
	for i, p := range c.Procs {
		addrs[i] = p.GossipAddr
	}
	return addrs
}

// KillAndRecover restarts member i from its on-disk write-ahead log alone,
// with no drain — the crash-restart fault. If the process is
// still running it is SIGKILLed first; callers testing mid-burst kills
// deliver the SIGKILL themselves (Procs[i].Kill) while traffic is in
// flight, optionally corrupt the WAL tail, and then call this to bring the
// member back on its old addresses with the full current peer list.
func (c *Cluster) KillAndRecover(i int) error {
	old := c.Procs[i]
	if old.Cfg.WALDir == "" {
		return fmt.Errorf("cluster: member %d has no WAL directory to recover from", i)
	}
	if !old.Exited() {
		if err := old.Kill(); err != nil {
			return err
		}
	}
	cfg := old.Cfg
	cfg.HTTPAddr = old.HTTPAddr
	cfg.GossipAddr = old.GossipAddr
	cfg.Peers = c.GossipAddrs()
	p, err := StartProc(c.Bin, cfg, c.logw)
	if err != nil {
		return fmt.Errorf("cluster: recover member %d: %w", i, err)
	}
	c.Procs[i] = p
	c.Clients[i] = NewClient(p.HTTPAddr)
	return nil
}

// PullAll triggers one anti-entropy batch on every member.
func (c *Cluster) PullAll() {
	for _, cl := range c.Clients {
		_, _ = cl.Pull()
	}
}

// States scrapes /v1/state from every member.
func (c *Cluster) States() ([]State, error) {
	states := make([]State, len(c.Clients))
	for i, cl := range c.Clients {
		st, err := cl.State()
		if err != nil {
			return nil, fmt.Errorf("cluster: state of member %d: %w", i, err)
		}
		states[i] = st
	}
	return states, nil
}

// Shutdown SIGKILLs every still-running member. Use Stop on individual
// procs for graceful drains.
func (c *Cluster) Shutdown() {
	for _, p := range c.Procs {
		if p != nil && !p.Exited() {
			_ = p.Kill()
		}
	}
}

// WaitConverged polls scraped states until every member shares one digest
// and one clock, nudging anti-entropy along with explicit pulls. It
// returns the converged states.
func (c *Cluster) WaitConverged(timeout time.Duration) ([]State, error) {
	deadline := time.Now().Add(timeout)
	var last []State
	for time.Now().Before(deadline) {
		states, err := c.States()
		if err == nil {
			last = states
			if err := CheckConvergence(states); err == nil {
				return states, nil
			}
		}
		c.PullAll()
		time.Sleep(100 * time.Millisecond)
	}
	detail := "no states scraped"
	if last != nil {
		if err := CheckConvergence(last); err != nil {
			detail = err.Error()
		}
		var b bytes.Buffer
		for i, st := range last {
			fmt.Fprintf(&b, "\n  member %d: %d updates, digest %.12s…", i, st.UpdateCount, st.Digest)
		}
		detail += b.String()
	}
	return last, fmt.Errorf("cluster: not converged within %v: %s", timeout, detail)
}
