package main

import (
	"bufio"
	"bytes"
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

// child is the server under test: the real connectit binary as a process
// of its own, so that the workload crosses every boundary a deployed edge
// crosses, and so that kill -9 means what it says.
type child struct {
	cmd    *exec.Cmd
	http   string // host:port
	ingest string // host:port
	logf   *os.File
	done   chan struct{}
}

// serverBinary returns the path of the server binary. run.sh has just built
// it; started any other way (go test, go run) the program builds it here.
func serverBinary(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "connectit")
	if os.Getenv("BENCH_BUILD_S") != "" {
		if _, err := os.Stat(bin); err == nil {
			return bin, nil
		}
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/connectit")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/connectit: %v\n%s", err, out)
	}
	return bin, nil
}

// freePorts asks the kernel for k unused loopback ports. They are released
// before the child binds them, which is a race only against another
// process picking the same ephemeral port in between.
func freePorts(k int) ([]string, error) {
	var addrs []string
	var open []net.Listener
	defer func() {
		for _, l := range open {
			l.Close()
		}
	}()
	for i := 0; i < k; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		open = append(open, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

// startChild boots the server with the workload's fixed policy: default
// 2 ms flush interval, fsync on every group, no snapshot during the run.
func startChild(bin, walDir, httpAddr, ingestAddr string, n int) (*child, error) {
	logf, err := os.OpenFile(filepath.Join(filepath.Dir(walDir), "server.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-serve", "-n", strconv.Itoa(n), "-addr", httpAddr, "-ingest-addr", ingestAddr,
		"-wal-dir", walDir, "-snapshot-interval", "1h")
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies without running its cleanups, the kernel takes
	// the child with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{cmd: cmd, http: httpAddr, ingest: ingestAddr, logf: logf, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// waitHealthy polls /healthz until it answers "ok", the child exits, or the
// timeout passes, and returns how long that took.
func (c *child) waitHealthy(timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	client := &http.Client{Timeout: 500 * time.Millisecond}
	for time.Since(start) < timeout {
		select {
		case <-c.done:
			return 0, fmt.Errorf("server exited during boot: %s", c.logTail())
		default:
		}
		resp, err := client.Get("http://" + c.http + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.TrimSpace(string(body)) == "ok" {
				return time.Since(start), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("server not healthy after %v: %s", timeout, c.logTail())
}

// signalAndWait delivers sig and waits for the process to be gone.
func (c *child) signalAndWait(sig syscall.Signal) time.Duration {
	start := time.Now()
	c.cmd.Process.Signal(sig)
	select {
	case <-c.done:
	case <-time.After(20 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
	}
	c.logf.Close()
	return time.Since(start)
}

func (c *child) kill() { c.signalAndWait(syscall.SIGKILL) }

func (c *child) logTail() string {
	b, _ := os.ReadFile(c.logf.Name())
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return string(bytes.TrimSpace(b))
}

// scrape reads the child's /metrics into name{labels} → value.
func (c *child) scrape() (map[string]float64, error) {
	client := &http.Client{Timeout: time.Second}
	resp, err := client.Get("http://" + c.http + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, sc.Err()
}
