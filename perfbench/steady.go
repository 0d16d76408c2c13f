package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness check reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs every workload as two sets of runs, the second set after the
// first has finished on every workload, with seeds 1..runs in each set.
// For each end-to-end metric it prints both sets' medians and quartiles,
// each set's spread (quartile distance over the median) and the drift of
// the second median from the first in the worse direction, and whether
// they stay within the bound BENCHMARK.json fixes. The acceptance rule
// exempts setup_s from the spread check, not from the drift check.
func steady(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per workload in each set")
	seconds := fs.Int("seconds", 0, "run length (0: BENCHMARK.json's run_seconds)")
	only := fs.String("workloads", "", "comma-separated workloads (default: all in BENCHMARK.json)")
	out := fs.String("out", "", "also write the report to this file")
	fs.Parse(args)

	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "steady: BENCHMARK.json:", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "steady:", err)
		return 1
	}

	// values[workload][set][metric] holds one value per run.
	values := map[string][2]map[string][]float64{}
	for _, w := range names {
		values[w] = [2]map[string][]float64{{}, {}}
	}
	for set := 0; set < 2; set++ {
		for _, w := range names {
			for seed := 1; seed <= *runs; seed++ {
				res, err := runOnce(self, w, seed, *seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "steady: set %d %s seed %d: %v\n", set+1, w, seed, err)
					return 1
				}
				for name, m := range res.Metrics {
					values[w][set][name] = append(values[w][set][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "steady: set %d %s seed %d done\n", set+1, w, seed)
			}
		}
	}

	var rep bytes.Buffer
	fmt.Fprintf(&rep, "steadiness: %d runs per workload per set, seeds 1..%d, %ds runs, two sets in sequence\n", *runs, *runs, *seconds)
	fmt.Fprintf(&rep, "spread = (q3-q1)/median; drift = change of the set-2 median from set 1 in the worse direction\n\n")
	fmt.Fprintf(&rep, "%-14s %-14s %5s | %11s %11s %11s %7s | %11s %11s %11s %7s | %7s  %s\n",
		"workload", "metric", "bound", "med1", "q1", "q3", "spread1", "med2", "q1", "q3", "spread2", "drift", "verdict")
	ok := true
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			a, b := values[w][0][m.Name], values[w][1][m.Name]
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			s1, s2 := (a3-a1)/a2, (b3-b1)/b2
			drift := (b2 - a2) / a2
			if m.Better == "higher" {
				drift = -drift
			}
			verdict := "steady"
			switch {
			case drift > m.Bound || (m.Name != "setup_s" && (s1 > m.Bound || s2 > m.Bound)):
				verdict = "OUT OF BOUND"
				ok = false
			case m.Name != "setup_s" && (s1 > m.Bound/3 || s2 > m.Bound/3):
				verdict = "within bound, spread above bound/3"
			}
			fmt.Fprintf(&rep, "%-14s %-14s %5.2f | %11.5g %11.5g %11.5g %6.1f%% | %11.5g %11.5g %11.5g %6.1f%% | %6.1f%%  %s\n",
				w, m.Name, m.Bound, a2, a1, a3, 100*s1, b2, b1, b3, 100*s2, 100*drift, verdict)
		}
	}
	fmt.Fprintf(&rep, "\nper-run values, seeds 1..%d in order\n", *runs)
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			for set := 0; set < 2; set++ {
				fmt.Fprintf(&rep, "%-14s %-14s set%d:", w, m.Name, set+1)
				for _, v := range values[w][set][m.Name] {
					fmt.Fprintf(&rep, " %.5g", v)
				}
				fmt.Fprintln(&rep)
			}
		}
	}
	os.Stdout.Write(rep.Bytes())
	if *out != "" {
		if err := os.WriteFile(*out, rep.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "steady:", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// runOnce runs one untraced benchmark run in a child process and parses
// its result line.
func runOnce(self, workload string, seed, seconds int) (result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		io.Copy(os.Stderr, &stderr)
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return result{}, fmt.Errorf("run failed its gate: %s", lines[len(lines)-1])
	}
	return res, nil
}
