package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// hostRecord identifies the code and the machine a result was measured
// on. The checkout the benchmark runs in need not be a git repository,
// so SourceDigest (a hash over the Go sources, go.mod and BENCHMARK.json)
// identifies the code where GitRev cannot.
type hostRecord struct {
	GitRev       string `json:"git_rev"`
	SourceDigest string `json:"source_digest"`
	GoVersion    string `json:"go_version"`
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	CPUModel     string `json:"cpu_model"`
	OS           string `json:"os"`
}

func describeHost(root string) hostRecord {
	return hostRecord{
		GitRev:       gitRev(root),
		SourceDigest: sourceDigest(root),
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		OS:           runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// gitRev reads HEAD from root/.git without running git, which would
// search the directories above root for a repository.
func gitRev(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rev, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go file, go.mod and BENCHMARK.json under
// root in lexical path order, skipping .git and the build directory.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == ".git" || name == ".bench_build") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "BENCHMARK.json" {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel)
		h.Write([]byte{0})
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
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
