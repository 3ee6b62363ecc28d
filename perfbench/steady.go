package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// steadiness runs each workload n times as separate processes, seeds
// seed..seed+n-1, and prints every end-to-end metric's median,
// quartiles and spread (the interquartile range over the median)
// against its bound. A metric whose spread exceeds its bound is
// flagged; setup_s is flagged but does not fail the report, since only
// its median is held to the bound. Later changes reuse it to show that
// a number is steady before they rely on it.
func steadiness(cfg *benchConfig, only string, seed int64, n int, seconds float64, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fpb, _ := json.Marshal(fingerprint(seed)) // a struct of strings and ints
	fmt.Fprintf(stdout, "fingerprint %s\n", fpb)
	status := 0
	for _, w := range cfg.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			res, err := runChild(exe, w.Name, s, seconds, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.Name, s, err)
				return 1
			}
			for _, m := range cfg.EndToEnd {
				values[m.Name] = append(values[m.Name], res.Metrics[m.Name].Value)
			}
			fmt.Fprintf(stdout, "%s seed %d: wall_s %.4g setup_s %.4g hit_p50_us %.4g\n", w.Name, s,
				res.Metrics["wall_s"].Value, res.Metrics["setup_s"].Value, res.Metrics["hit_p50_us"].Value)
		}
		fmt.Fprintf(stdout, "%-14s %-20s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range cfg.EndToEnd {
			q1, med, q3, err := quartiles(values[m.Name])
			if err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
			spread := (q3 - q1) / med
			flag := ""
			if spread > m.Bound {
				flag = "  SPREAD EXCEEDS BOUND"
				if m.Name != "setup_s" {
					status = 1
				}
			}
			fmt.Fprintf(stdout, "%-14s %-20s %12.6g %12.6g %12.6g %8.4f %6.3f%s\n", w.Name, m.Name, q1, med, q3, spread, m.Bound, flag)
		}
	}
	return status
}

// runChild runs one measured run in its own process and parses the
// result from its last line of output.
func runChild(exe, name string, seed int64, seconds float64, stderr io.Writer) (*result, error) {
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parsing result: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
	}
	return &res, nil
}
