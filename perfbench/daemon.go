package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// daemon is one psaflowd process the benchmark started.
type daemon struct {
	id   string
	addr string // host:port
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once the process has been waited for
}

func (d *daemon) url() string { return "http://" + d.addr }

// freeAddrs reserves n loopback ports by listening on port 0, then
// releases them for the daemons to bind.
func freeAddrs(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var out []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		out = append(out, l.Addr().String())
	}
	return out, nil
}

// startDaemons starts the workload's psaflowd nodes, each with its own
// WAL directory under dir, and waits until every /healthz answers OK. A
// multi-node workload gets static -node-id/-peers membership.
func startDaemons(r *runner, dir string) ([]*daemon, error) {
	n := r.wl.Nodes
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	var ds []*daemon
	for i := 0; i < n; i++ {
		d := &daemon{id: fmt.Sprintf("n%d", i+1), addr: addrs[i], done: make(chan struct{})}
		args := append([]string{}, r.wl.DaemonFlags...)
		args = append(args, "-addr", d.addr, "-data-dir", filepath.Join(dir, d.id))
		if n > 1 {
			var peers []string
			for j, a := range addrs {
				if j != i {
					peers = append(peers, fmt.Sprintf("n%d=http://%s", j+1, a))
				}
			}
			args = append(args, "-node-id", d.id, "-peers", strings.Join(peers, ","))
		}
		d.log = filepath.Join(dir, d.id+".log")
		logf, err := os.Create(d.log)
		if err != nil {
			stopDaemons(ds)
			return nil, err
		}
		d.cmd = exec.Command(filepath.Join(r.bin, "psaflowd"), args...)
		d.cmd.Stdout, d.cmd.Stderr = logf, logf
		// The daemons must not outlive the benchmark, even if it is killed.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			logf.Close()
			stopDaemons(ds)
			return nil, fmt.Errorf("start psaflowd: %w", err)
		}
		go func() {
			_ = d.cmd.Wait() // the exit status is read from the log on failure
			logf.Close()
			close(d.done)
		}()
		ds = append(ds, d)
	}
	for _, d := range ds {
		if err := d.waitHealthy(30 * time.Second); err != nil {
			stopDaemons(ds)
			return nil, err
		}
	}
	return ds, nil
}

func (d *daemon) waitHealthy(limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("psaflowd %s exited during start-up: %s", d.id, d.logTail())
		default:
		}
		resp, err := hc.Get(d.url() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("psaflowd %s not healthy after %s: %s", d.id, limit, d.logTail())
}

func (d *daemon) logTail() string {
	raw, _ := os.ReadFile(d.log) // best effort: only decorates an error
	raw = bytes.TrimSpace(raw)
	if len(raw) > 400 {
		raw = raw[len(raw)-400:]
	}
	return string(raw)
}

// peakRSSMB reads the daemon's VmHWM while it is still running.
func (d *daemon) peakRSSMB() (float64, error) {
	return peakRSSMB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// stopDaemons sends SIGTERM (psaflowd drains and exits), kills any node
// still running after the grace period, and waits for every process.
func stopDaemons(ds []*daemon) {
	for _, d := range ds {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	}
	deadline := time.Now().Add(15 * time.Second)
	for _, d := range ds {
		select {
		case <-d.done:
		case <-time.After(time.Until(deadline)):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	}
}
