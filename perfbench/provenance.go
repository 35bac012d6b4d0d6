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
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// provenance records what a result was measured on and with.
type provenance struct {
	Commit      string  `json:"commit"`
	SourceHash  string  `json:"source_sha256"`
	GoVersion   string  `json:"go_version"`
	CPU         string  `json:"cpu"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	DataDirFS   string  `json:"serve_data_dir_fs"`
	Seed        int64   `json:"seed"`
	Workload    string  `json:"workload"`
	Trace       int     `json:"trace"`
	RunSeconds  int     `json:"run_seconds"`
	CorpusScale float64 `json:"corpus_scale"`
}

func newProvenance(workload string, seed int64, seconds, trace int, dataDir string) provenance {
	return provenance{
		Commit:      gitCommit("."),
		SourceHash:  sourceHash("."),
		GoVersion:   runtime.Version(),
		CPU:         cpuModel(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		DataDirFS:   fsType(dataDir),
		Seed:        seed,
		Workload:    workload,
		Trace:       trace,
		RunSeconds:  seconds,
		CorpusScale: corpusScale,
	}
}

// gitCommit reads HEAD from the .git directory under root, without running
// git; a checkout that is not a repository reports "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file under root, so a
// result names the code it measured even where there is no git history.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		io.WriteString(h, f+"\x00")
		if b, err := os.ReadFile(f); err == nil {
			h.Write(b)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// statfsType names the filesystem at path from its statfs magic number.
func statfsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return "0x" + strings.ToLower(hex.EncodeToString([]byte{byte(st.Type >> 24), byte(st.Type >> 16), byte(st.Type >> 8), byte(st.Type)}))
	}
}

// cpuTicks reads the machine-wide CPU time counters from the first line of
// /proc/stat (user, nice, system, idle, iowait, irq, softirq, steal); nil
// where there is no such file.
func cpuTicks() []int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return nil
	}
	ticks := make([]int64, 8)
	for i := range ticks {
		if ticks[i], err = strconv.ParseInt(fields[i+1], 10, 64); err != nil {
			return nil
		}
	}
	return ticks
}

// stealFrac is the share of CPU time between two cpuTicks readings that the
// hypervisor gave to other guests: the host's interference during the run,
// to read the timings against.
func stealFrac(before, after []int64) (float64, bool) {
	if before == nil || after == nil {
		return 0, false
	}
	var total int64
	for i := range after {
		total += after[i] - before[i]
	}
	if total <= 0 {
		return 0, false
	}
	return float64(after[7]-before[7]) / float64(total), true
}
