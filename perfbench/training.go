package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"splitcnn/internal/trace"
)

// trainFlags fixes the training block: split VGG-19 at width /16 on the
// command's built-in 32x32 CIFAR-geometry data, splitting depth 0.75
// over 2x2 patches, batch 32, two epochs of 1024 images, 32 evaluation
// images and a fixed seed, so the loss is the same on every run. The
// per-step log is how the benchmark reads step times and losses; it
// passes no engine or tuning flag.
var trainFlags = []string{"train", "-arch", "vgg19", "-widthdiv", "16", "-depth", "0.75", "-splits", "4",
	"-batch", "32", "-epochs", "2", "-train", "1024", "-test", "32", "-seed", "7"}

const trainBatch = 32

// trainRun is what one `splitcnn train` process showed.
type trainRun struct {
	setupS     float64 // launch to the end of the first optimizer step
	ips        float64 // images trained per second of wall time after set-up
	lossFinal  float64 // last epoch's mean training loss
	lossStep1  float64
	peakRSSMiB float64
	steps      []trace.StepRecord
}

// runTrain runs one training process to completion and reads its
// timings back from its stdout epoch lines and its step log.
//
// The step log is buffered inside the program, so the end of the first
// step is reconstructed rather than observed: the epoch-0 line is
// printed right after the epoch's step loop and its evaluation pass, so
//
//	first step end = t(epoch-0 line) − eval − (loop₀ − step₁)
//
// where loop₀ is epoch 0's step-loop wall time, step₁ the first step's
// wall time (both from the step log), and eval the evaluation pass,
// measured as the gap between the two epoch lines minus loop₁.
func runTrain(bin, dir string, idx int) (*trainRun, error) {
	name := fmt.Sprintf("train%d", idx)
	logPath := filepath.Join(dir, name+".steplog.jsonl")
	c, err := startChild(name, bin, dir, append(append([]string(nil), trainFlags...), "-steplog", logPath)...)
	if err != nil {
		return nil, err
	}
	var epochLines []stampedLine
	timeout := time.NewTimer(150 * time.Second)
	defer timeout.Stop()
	for done := false; !done; {
		select {
		case l, ok := <-c.lines:
			if !ok {
				done = true
			} else if strings.HasPrefix(strings.TrimSpace(l.text), "epoch") {
				epochLines = append(epochLines, l)
			}
		case <-timeout.C:
			c.stop()
			return nil, fmt.Errorf("%s: no exit within 150s", name)
		}
	}
	<-c.done
	if c.err != nil {
		return nil, fmt.Errorf("%s: %v (see %s.log)", name, c.err, name)
	}
	r := &trainRun{}
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		// ru_maxrss is the kernel's hiwater_rss, the counter VmHWM shows,
		// read at exit (Linux reports it in KiB).
		r.peakRSSMiB = float64(ru.Maxrss) / 1024
	}
	f, err := os.Open(logPath)
	if err != nil {
		return nil, err
	}
	steps, epochs, err := trace.ReadStepLog(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: step log: %w", name, err)
	}
	if len(epochs) != 2 || len(epochLines) != 2 || len(steps) < 2 {
		return nil, fmt.Errorf("%s: %d epoch records, %d epoch lines, %d steps; want 2, 2, >1",
			name, len(epochs), len(epochLines), len(steps))
	}
	r.steps = steps
	eval := epochLines[1].at.Sub(epochLines[0].at).Seconds() - epochs[1].EpochSeconds
	eval = max(eval, 0)
	loopRest := epochs[0].EpochSeconds - steps[0].StepSeconds
	firstStepEnd := epochLines[0].at.Add(-time.Duration((eval + loopRest) * float64(time.Second)))
	r.setupS = firstStepEnd.Sub(c.start).Seconds()
	r.ips = float64((len(steps)-1)*trainBatch) / epochLines[1].at.Sub(firstStepEnd).Seconds()
	r.lossStep1 = steps[0].Loss
	r.lossFinal = epochs[len(epochs)-1].MeanLoss
	return r, r.check()
}

// check is the training output check: every loss finite, and the final
// epoch's mean loss below the first step's.
func (r *trainRun) check() error {
	for _, s := range r.steps {
		if math.IsNaN(s.Loss) || math.IsInf(s.Loss, 0) {
			return fmt.Errorf("train: step %d loss %v", s.Step, s.Loss)
		}
	}
	if math.IsNaN(r.lossFinal) || math.IsInf(r.lossFinal, 0) {
		return errors.New("train: final loss not finite")
	}
	if !(r.lossFinal < r.lossStep1) {
		return fmt.Errorf("train: final loss %v not below step-1 loss %v", r.lossFinal, r.lossStep1)
	}
	if r.setupS <= 0 || r.ips <= 0 {
		return fmt.Errorf("train: reconstructed set-up %.3fs / %.1f img/s out of range", r.setupS, r.ips)
	}
	return nil
}
