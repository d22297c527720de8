package autotune

// Plan persistence. The cache file is JSON, partitioned by environment
// string (GOARCH + kernel variant + GOMAXPROCS): a plan measured with
// the AVX2 micro-kernel on 8 threads says nothing about a portable
// build on 1, so each environment owns a section and a process only
// reads its own. Foreign sections are carried through Save untouched.
// A missing or corrupt file is not an error — the contract is "silent
// re-tune": Load leaves the tuner empty and the next Tune repopulates.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"splitcnn/internal/tensor"
)

const cacheVersion = 1

// Env returns the environment half of the cache key for this process.
func Env() string {
	return fmt.Sprintf("%s/p%d", tensor.CPUFeatures(), runtime.GOMAXPROCS(0))
}

// DefaultCachePath returns ~/.cache/splitcnn/autotune.json (per the
// user cache-dir convention of the platform).
func DefaultCachePath() (string, error) {
	dir, err := os.UserCacheDir()
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, "splitcnn", "autotune.json"), nil
}

type cacheFile struct {
	Version int                     `json:"version"`
	Envs    map[string][]cachedPlan `json:"envs"`
}

type cachedPlan struct {
	Key     Key                `json:"key"`
	Algo    string             `json:"algo"`
	Seconds map[string]float64 `json:"seconds,omitempty"`
}

// Load reads the cache file at path and installs every entry of this
// process's environment section that still passes Applicable. Missing
// or unparsable files (and unknown algorithm names or versions) are
// silently skipped — those keys simply re-tune. The path is remembered
// for Save.
func (t *Tuner) Load(path string) error {
	t.mu.Lock()
	t.path = path
	t.mu.Unlock()
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil // no cache yet: start empty
	}
	var f cacheFile
	if err := json.Unmarshal(raw, &f); err != nil || f.Version != cacheVersion {
		return nil // corrupt or from another era: silent re-tune
	}
	env := Env()
	t.mu.Lock()
	t.other = f.Envs
	t.mu.Unlock()
	for _, cp := range f.Envs[env] {
		algo, ok := ParseAlgo(cp.Algo)
		if !ok || !Applicable(algo, paramsOf(cp.Key)) {
			continue
		}
		d := Decision{Algo: algo, Seconds: make(map[Algo]float64, len(cp.Seconds))}
		for name, s := range cp.Seconds {
			if a, ok := ParseAlgo(name); ok && s > 0 {
				d.Seconds[a] = s
			}
		}
		t.SetPlan(cp.Key, d)
	}
	t.mu.Lock()
	t.dirty = false // what we just loaded is what the file holds
	t.mu.Unlock()
	return nil
}

// Save writes the tuner's plans to the path given to Load (or set with
// SetCachePath), atomically (temp file + rename), preserving other
// environments' sections. A tuner with no path or no new plans is a
// no-op.
func (t *Tuner) Save() error {
	t.mu.RLock()
	path, dirty := t.path, t.dirty
	env := Env()
	section := make([]cachedPlan, 0, len(t.plans))
	for k, d := range t.plans {
		cp := cachedPlan{Key: k, Algo: d.Algo.String(), Seconds: make(map[string]float64, len(d.Seconds))}
		for a, s := range d.Seconds {
			cp.Seconds[a.String()] = s
		}
		section = append(section, cp)
	}
	envs := make(map[string][]cachedPlan, len(t.other)+1)
	for e, plans := range t.other {
		if e != env {
			envs[e] = plans
		}
	}
	t.mu.RUnlock()
	if path == "" || !dirty {
		return nil
	}
	// Deterministic output order, so repeated saves of the same plans
	// are byte-identical.
	sort.Slice(section, func(i, j int) bool {
		a, b := section[i].Key, section[j].Key
		if a.C != b.C {
			return a.C < b.C
		}
		if a.H != b.H {
			return a.H < b.H
		}
		if a.W != b.W {
			return a.W < b.W
		}
		if a.Cout != b.Cout {
			return a.Cout < b.Cout
		}
		if a.KH != b.KH {
			return a.KH < b.KH
		}
		return fmt.Sprint(a) < fmt.Sprint(b)
	})
	envs[env] = section
	out, err := json.MarshalIndent(cacheFile{Version: cacheVersion, Envs: envs}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".autotune-*.json")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(out, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	t.mu.Lock()
	t.dirty = false
	t.mu.Unlock()
	return nil
}

// SetCachePath sets the persistence path without loading (used when
// the caller wants a fresh tune written somewhere specific).
func (t *Tuner) SetCachePath(path string) {
	t.mu.Lock()
	t.path = path
	t.mu.Unlock()
}

// CachePath returns the tuner's persistence path ("" if none).
func (t *Tuner) CachePath() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.path
}
