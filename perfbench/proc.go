package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one running splitcnn process. Its stdout is read line by
// line, each line stamped with its arrival time; stderr goes to a log
// file next to the run's other artifacts.
type child struct {
	name  string
	cmd   *exec.Cmd
	start time.Time
	lines chan stampedLine // closed at stdout EOF
	done  chan struct{}    // closed once the process has been waited for
	err   error            // Wait's result, valid after done
}

type stampedLine struct {
	text string
	at   time.Time
}

// startChild launches bin with args. The caller must call stop (or
// wait for exit) on every path.
func startChild(name, bin, logDir string, args ...string) (*child, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	// Should this process die without stopping its children, the
	// kernel kills them rather than leaving them running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	// The children print a handful of lines each (a banner, one line
	// per training epoch); the buffer holds them all, so the reader
	// never blocks a child that nobody is listening to.
	c := &child{name: name, cmd: cmd, lines: make(chan stampedLine, 256), done: make(chan struct{})}
	c.start = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case c.lines <- stampedLine{sc.Text(), time.Now()}:
			default: // a chatty child must not stall; later lines are not needed
			}
		}
		close(c.lines)
		// Wait only after stdout is drained, as os/exec requires.
		c.err = cmd.Wait()
		logf.Close()
		close(c.done)
	}()
	return c, nil
}

// waitLine returns the first stdout line containing marker.
func (c *child) waitLine(marker string, timeout time.Duration) (stampedLine, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case l, ok := <-c.lines:
			if !ok {
				<-c.done
				return stampedLine{}, fmt.Errorf("%s exited before printing %q: %v (see %s.log)", c.name, marker, c.err, c.name)
			}
			if strings.Contains(l.text, marker) {
				return l, nil
			}
		case <-deadline.C:
			return stampedLine{}, fmt.Errorf("%s printed no %q within %v", c.name, marker, timeout)
		}
	}
}

// stop sends SIGTERM, waits up to 10s for a graceful exit, then kills.
// It always returns with the process reaped.
func (c *child) stop() {
	select {
	case <-c.done:
		return
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is reaped below
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

// peakRSSKiB returns the child's VmHWM: the kernel's high-water mark of
// its resident set since launch.
func (c *child) peakRSSKiB() (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// parseVmHWM extracts the VmHWM line ("VmHWM:	  12345 kB") of a
// /proc/<pid>/status file, in KiB.
func parseVmHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", sc.Text())
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line")
}
