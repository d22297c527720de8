package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// envKey identifies where and on what a run was taken. Runs are
// compared only when their ID (machine and toolchain) matches.
type envKey struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// Commit is the git HEAD when the checkout is a repository; Tree
	// hashes the Go sources and module files, so a checkout without
	// git history is still identified.
	Commit   string `json:"commit"`
	Tree     string `json:"tree"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	ID       string `json:"id"`
}

func newEnvKey(workload string, seed int64) envKey {
	k := envKey{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitHead(),
		Tree:       treeHash("."),
		Workload:   workload,
		Seed:       seed,
	}
	h := sha256.Sum256([]byte(strings.Join([]string{k.CPU, strconv.Itoa(k.NProc), strconv.Itoa(k.GOMAXPROCS), k.GoVersion}, "|")))
	k.ID = hex.EncodeToString(h[:6])
	return k
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// treeHash hashes every .go, go.mod and go.sum file under root, skipping
// dot-directories (build output, VCS metadata).
func treeHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry just does not contribute
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil)[:6])
}
