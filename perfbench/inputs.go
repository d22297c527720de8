package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"splitcnn/internal/data"
	"splitcnn/internal/serve"
)

// poissonSchedule returns the send offsets of n arrivals of a Poisson
// process at rate arrivals per second: exponential gaps drawn from a
// generator seeded with seed, so one seed always yields one schedule.
func poissonSchedule(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// Schedule seeds: each round's low and high phase has its own
// schedule, derived from the workload seed.
const (
	lowPhase  = 1
	highPhase = 2
)

func scheduleSeed(seed int64, round, phase int) int64 { return seed*64 + int64(round)*8 + int64(phase) }

// images draws n CIFAR-geometry images (3x32x32) from internal/data's
// seeded synthetic generator: class prototypes under a cyclic shift
// plus Gaussian noise, never all-zero inputs.
func images(seed int64, n int) ([][]float32, error) {
	cfg := data.CIFARLike(n, 1)
	cfg.Seed = seed
	ds, err := data.Synthetic(cfg)
	if err != nil {
		return nil, fmt.Errorf("images: %w", err)
	}
	size := cfg.C * cfg.H * cfg.W
	out := make([][]float32, n)
	for i := range out {
		out[i] = ds.TrainX[i*size : (i+1)*size]
	}
	return out, nil
}

// requestBodies encodes one /v1/predict JSON body per image, ahead of
// the run, so the load generator spends no CPU on encoding.
func requestBodies(imgs [][]float32) ([][]byte, error) {
	out := make([][]byte, len(imgs))
	for i, img := range imgs {
		b, err := json.Marshal(serve.PredictRequest{Image: img})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
