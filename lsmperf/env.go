package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// environment is recorded with every result, so a reader can tell a
// change of machine from a change of program.
type environment struct {
	NumCPU       int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	FSType       string  `json:"fs_type"`
	SleepFloorUs float64 `json:"sleep_floor_us"`
	FsyncUs      float64 `json:"fsync_us"`
	CPUProbeUs   float64 `json:"cpu_probe_us"`
}

func probeEnvironment(root, workDir string) (environment, error) {
	e := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		FSType:     fsType(workDir),
	}
	var err error
	if e.SourceSHA256, err = sourceHash(root); err != nil {
		return e, err
	}
	e.SleepFloorUs = sleepFloorUs()
	e.CPUProbeUs = cpuProbeUs()
	e.FsyncUs, err = fsyncUs(workDir)
	return e, err
}

// cpuProbeUs is the median time to hash 1 MiB: a fixed piece of CPU
// work whose drift between runs shows how busy the machine was.
func cpuProbeUs() float64 {
	buf := make([]byte, 1<<20)
	ds := make([]int64, 9)
	for i := range ds {
		t0 := time.Now()
		sha256.Sum256(buf)
		ds[i] = int64(time.Since(t0))
	}
	return float64(percentile(ds, 50)) / 1e3
}

// gitCommit names the checked-out commit, or "none" outside a git
// checkout; the source hash identifies the code either way.
func gitCommit(root string) string {
	cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes every Go source and module file under root, in path
// order, skipping hidden directories (build output lives in one).
func sourceHash(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// sleepFloorUs is the median time a 1 µs sleep really takes: the
// shortest wait this machine's timers can deliver.
func sleepFloorUs() float64 {
	ds := make([]int64, 21)
	for i := range ds {
		t0 := time.Now()
		time.Sleep(time.Microsecond)
		ds[i] = int64(time.Since(t0))
	}
	return float64(percentile(ds, 50)) / 1e3
}

// fsyncUs is the median cost of appending 4 KiB and syncing it, in the
// directory the stores live in.
func fsyncUs(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	ds := make([]int64, 21)
	for i := range ds {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		ds[i] = int64(time.Since(t0))
	}
	return float64(percentile(ds, 50)) / 1e3, nil
}
