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
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gametree/internal/engine"
	"gametree/internal/games"
)

// hostInfo identifies the machine and build a result was measured on.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
	CalibMs    float64 `json:"calibration_ms"`
	CalibWhat  string  `json:"calibration"`
}

// calibration is a fixed sequential search timed in every run, so
// results from different hosts (or a throttled run) can be normalised.
const calibWhat = "engine.Search connect4 empty board depth 8, median of 3"

func probeHost(root string) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest(root),
		CalibWhat:  calibWhat,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	var runs []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		engine.Search(games.StandardConnect4(), 8)
		runs = append(runs, ms(time.Since(t)))
	}
	h.CalibMs = median(runs)
	return h
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

// sourceDigest hashes the Go sources and module files under root, the
// build's identity when the checkout carries no version-control data.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
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
		rel, _ := filepath.Rel(root, p)
		io.WriteString(h, rel+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat: the
// total and the share the hypervisor gave to other guests (steal). ok is
// false where the file or its steal column is missing.
func cpuTicks() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, true
}

// stealTick is how often a stealMonitor samples the CPU counters.
const stealTick = 100 * time.Millisecond

// stealMonitor samples the machine's CPU counters while a window runs,
// so every part of the window can be given the share of CPU time the
// hypervisor gave to other guests meanwhile.
type stealMonitor struct {
	mu    sync.Mutex
	ticks []stealSample
	stop  chan struct{}
	done  chan struct{}
}

type stealSample struct {
	at           time.Time
	total, steal uint64
}

// startStealMonitor starts sampling; it returns nil where the counters
// cannot be read. Stop it with finish.
func startStealMonitor() *stealMonitor {
	if _, _, ok := cpuTicks(); !ok {
		return nil
	}
	m := &stealMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	m.sample()
	go func() {
		defer close(m.done)
		t := time.NewTicker(stealTick)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				m.sample()
				return
			case <-t.C:
				m.sample()
			}
		}
	}()
	return m
}

func (m *stealMonitor) sample() {
	if total, steal, ok := cpuTicks(); ok {
		m.mu.Lock()
		m.ticks = append(m.ticks, stealSample{time.Now(), total, steal})
		m.mu.Unlock()
	}
}

// finish stops the sampler and waits for it to end.
func (m *stealMonitor) finish() {
	if m != nil {
		close(m.stop)
		<-m.done
	}
}

// share is the steal share of the machine's CPU time from the last
// sample at or before from to the first at or after to.
func (m *stealMonitor) share(from, to time.Time) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, j := 0, len(m.ticks)-1
	for k, t := range m.ticks {
		if !t.at.After(from) {
			i = k
		}
		if !t.at.Before(to) && k < j {
			j = k
		}
	}
	a, b := m.ticks[i], m.ticks[j]
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// maxRSSMB is the peak resident set of this process so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
