package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
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

// cluster is a running rcpnserve (plus, when sharded, one rcpnworker)
// started by the benchmark in a private data directory.
type cluster struct {
	base   string // http://127.0.0.1:port
	dir    string
	procs  []*exec.Cmd
	client *http.Client
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// bootTimeout bounds how long a server may take to become ready.
const bootTimeout = 30 * time.Second

// startCluster boots a durable one-worker rcpnserve with its journal in a
// fresh directory under work and, when sharded, a coordinator with one
// rcpnworker; it returns once /healthz answers ok and, sharded, the
// worker has joined the ring.
func startCluster(bin, work string, sharded bool) (*cluster, error) {
	dir, err := os.MkdirTemp(work, "serve-")
	if err != nil {
		return nil, err
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	c := &cluster{base: "http://" + addr, dir: dir,
		client: &http.Client{Timeout: 10 * time.Second, Transport: oneConn()}}
	args := []string{"-addr", addr, "-workers", "1", "-data", filepath.Join(dir, "data"), "-drain", "2s"}
	var coord string
	if sharded {
		if coord, err = freePort(); err != nil {
			return nil, err
		}
		args = append(args, "-coordinator", coord)
	}
	if err := c.spawn(filepath.Join(bin, "rcpnserve"), "rcpnserve.log", args...); err != nil {
		return nil, err
	}
	// The worker starts once the coordinator answers, so it joins the ring
	// on its first dial instead of after a reconnect back-off.
	if err := c.waitReady(false); err != nil {
		c.stop()
		return nil, err
	}
	if sharded {
		if err := c.spawn(filepath.Join(bin, "rcpnworker"), "rcpnworker.log",
			"-coordinator", coord, "-node", "w1", "-slots", "1"); err != nil {
			c.stop()
			return nil, err
		}
		if err := c.waitReady(true); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

func (c *cluster) spawn(path, log string, args ...string) error {
	f, err := os.Create(filepath.Join(c.dir, log))
	if err != nil {
		return err
	}
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = f, f
	// Should the benchmark itself die, the server dies with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return fmt.Errorf("start %s: %w", filepath.Base(path), err)
	}
	f.Close() // the child holds its own descriptor
	c.procs = append(c.procs, cmd)
	return nil
}

func (c *cluster) waitReady(sharded bool) error {
	deadline := time.Now().Add(bootTimeout)
	for time.Now().Before(deadline) {
		resp, err := c.client.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if !sharded {
					return nil
				}
				if m, err := c.scrape(context.Background()); err == nil && m["rcpn_shard_workers"] >= 1 {
					return nil
				}
			}
		}
		// Polled finely: setup_s is measured to this readiness check, and a
		// coarse poll would quantise it.
		time.Sleep(500 * time.Microsecond)
	}
	return fmt.Errorf("server not ready within %v (logs in %s)", bootTimeout, c.dir)
}

// peakRSS is the largest VmHWM over the cluster's processes.
func (c *cluster) peakRSS() (float64, error) {
	var peak float64
	for _, p := range c.procs {
		v, err := peakRSSMiB(p.Process.Pid)
		if err != nil {
			return 0, err
		}
		peak = max(peak, v)
	}
	return peak, nil
}

// stopGrace is how long the processes may take to exit after SIGTERM
// before they are killed.
const stopGrace = 5 * time.Second

// stop sends every process SIGTERM at once (a worker notices shutdown
// soonest when its coordinator closes the connection too), kills whatever
// has not exited after stopGrace, waits for each to exit and removes the
// data directory.
func (c *cluster) stop() {
	if c == nil {
		return
	}
	var dones []chan struct{}
	for _, p := range c.procs {
		p.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
		done := make(chan struct{})
		go func() { p.Wait(); close(done) }() //nolint:errcheck // exit status of a stopped server is not interesting
		dones = append(dones, done)
	}
	timer := time.NewTimer(stopGrace)
	defer timer.Stop()
	expired := false
	for i, done := range dones {
		if !expired {
			select {
			case <-done:
				continue
			case <-timer.C:
				expired = true
			}
		}
		c.procs[i].Process.Kill() //nolint:errcheck // already exited is fine
		<-done
	}
	c.procs = nil
	c.client.CloseIdleConnections()
	os.RemoveAll(c.dir) //nolint:errcheck // scratch space inside the checkout
}

// oneConn is a transport that keeps at most one connection to the server.
func oneConn() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
}

// scrape reads /v1/metrics into name -> value. Labelled series are keyed
// with their label set; histogram _sum and _count keep their suffix.
func (c *cluster) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/metrics: %s", resp.Status)
	}
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}
