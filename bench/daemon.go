package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemon compiles cmd/tensatd from the checkout's sources into
// the run's output directory. The go tool's own cache makes every
// build after the first a staleness check.
func buildDaemon(ctx context.Context, cfg runConfig) (string, error) {
	bin := filepath.Join(cfg.outDir, "bin", "tensatd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/tensatd")
	cmd.Dir = cfg.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building tensatd: %v\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for a loopback port nobody listens on.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// daemon is one tensatd subprocess on a loopback socket.
type daemon struct {
	addr    string // host:port, also the node's fleet name
	bin     string
	args    []string
	logPath string
	cmd     *exec.Cmd
	log     *os.File
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// start launches the process and waits until it answers /v1/healthz.
func (d *daemon) start(ctx context.Context) error {
	log, err := os.OpenFile(d.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(d.bin, append([]string{"-addr", d.addr}, d.args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Start(); err != nil {
		log.Close()
		return fmt.Errorf("starting tensatd: %w", err)
	}
	d.cmd, d.log = cmd, log
	deadline := time.Now().Add(15 * time.Second)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.url("/v1/healthz"), nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			_ = d.stop()
			return fmt.Errorf("tensatd on %s did not become healthy (see %s): %v", d.addr, d.logPath, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the process to drain and exit, waits for it, and kills it
// if it has not gone after ten seconds.
func (d *daemon) stop() error {
	if d.cmd == nil {
		return nil
	}
	cmd := d.cmd
	d.cmd = nil
	defer d.log.Close()
	_ = cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("tensatd on %s: %w", d.addr, err)
		}
		return nil
	case <-time.After(10 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		return fmt.Errorf("tensatd on %s ignored SIGTERM for 10 s and was killed", d.addr)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// scrape reads a daemon's /metrics into series → value. A series with
// labels keeps them in its key, as in `tensat_requests_total{...}`.
func scrape(ctx context.Context, d *daemon) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url("/metrics"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics on %s: %s", d.addr, resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// delta is after−before for one series; a series either scrape lacks
// counts as 0 there.
func delta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}
