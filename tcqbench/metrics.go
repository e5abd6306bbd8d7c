package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"github.com/trustedcells/tcq/internal/obs"
)

// metric is one reported number with everything needed to compare it:
// unit, how many samples it summarizes, which direction is better, and
// whether it comes from the simulated clock rather than a measurement.
type metric struct {
	Name      string  `json:"name"`
	Value     float64 `json:"value"`
	Unit      string  `json:"unit"`
	Samples   int     `json:"samples"`
	Better    string  `json:"better,omitempty"`
	Simulated bool    `json:"simulated,omitempty"`
}

func lower(name string, v float64, unit string, n int) metric {
	return metric{Name: name, Value: finite(v), Unit: unit, Samples: n, Better: "lower"}
}

func higher(name string, v float64, unit string, n int) metric {
	return metric{Name: name, Value: finite(v), Unit: unit, Samples: n, Better: "higher"}
}

// finite maps the NaN or infinity of a ratio over no passing query to 0;
// such a run has failures and is reported as incorrect anyway.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func simulated(m metric) metric {
	m.Simulated = true
	return m
}

func median(xs []float64) float64 { return obs.Quantile(xs, 0.5) }

// hostInfo is the host block every report carries, so two records can
// be told apart before they are compared.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func describeHost(seed int64) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Seed:       seed,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the checked-out commit, or "unknown" outside a git
// checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuTimes reads the host's cumulative CPU time and the part of it
// stolen by the hypervisor (the aggregate "cpu" line of /proc/stat).
func cpuTimes() (total, steal float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("cpu times: %w", err)
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("cpu times: unexpected /proc/stat line %q", line)
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("cpu times: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}

// resetPeakRSS resets the process's resident-set high-water mark
// (VmHWM) to its current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak rss: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak rss: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}

// result is one run's outcome: the metrics the last line carries, the
// report-only details, and the correctness account.
type result struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Seconds   int      `json:"seconds"`
	Host      hostInfo `json:"host"`
	Metrics   []metric `json:"metrics"`
	Detail    []metric `json:"detail"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

// maxFailureNotes bounds how many failure messages a report repeats.
const maxFailureNotes = 5

func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < maxFailureNotes {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// write prints the human-readable report, the self-describing JSON
// record, and last the one-line summary the benchmark contract reads.
func (r *result) write(w io.Writer) error {
	fmt.Fprintf(w, "tcqbench workload=%s seconds=%d trace=%v\n", r.Workload, r.Seconds, r.Trace)
	h := r.Host
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s seed=%d\n",
		h.NProc, h.GoMaxProcs, h.CPU, h.GoVersion, h.Commit, h.Seed)
	for _, group := range []struct {
		title string
		ms    []metric
	}{{"metrics", r.Metrics}, {"detail (report only)", r.Detail}} {
		if len(group.ms) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s:\n", group.title)
		for _, m := range group.ms {
			kind := ""
			if m.Simulated {
				kind = "simulated"
			}
			fmt.Fprintf(w, "  %-36s %16.6g %-12s n=%-6d %-7s %s\n",
				m.Name, m.Value, m.Unit, m.Samples, m.Better, kind)
		}
	}
	fmt.Fprintf(w, "queries: attempted=%d failed=%d failed_ratio=%.6g\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, f := range r.Failures {
		fmt.Fprintf(w, "failure: %s\n", f)
	}
	rec, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "report: %s\n", rec)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.Metrics))
	for _, m := range r.Metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	last, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}
