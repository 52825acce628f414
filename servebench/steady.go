package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// fingerprintRow matches a README table row "| `workload` | `hash` |".
var fingerprintRow = regexp.MustCompile("^\\| `([a-z-]+)` \\| `([0-9a-f]{16})` \\|")

// checkFingerprint regenerates the inputs at seed 1 and compares their hash
// with the one recorded in the README, so drift in datagen or in the
// templates stops the run instead of silently moving the baseline.
func checkFingerprint(s spec, readme string) error {
	f, err := os.Open(readme)
	if err != nil {
		return fmt.Errorf("input fingerprint: %w", err)
	}
	defer f.Close()
	want := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m := fingerprintRow.FindStringSubmatch(sc.Text()); m != nil && m[1] == s.name {
			want = m[2]
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("input fingerprint: %w", err)
	}
	if want == "" {
		return fmt.Errorf("input fingerprint: %s records none for %s", readme, s.name)
	}
	in, err := makeInputs(s, 1)
	if err != nil {
		return err
	}
	if got := in.fingerprint(); got != want {
		return fmt.Errorf("input fingerprint of %s at seed 1 is %s, %s records %s: datagen or the templates changed; re-measure the baseline and update the README (servebench --fingerprint)", s.name, got, readme, want)
	}
	return nil
}

// steadiness runs each workload n times in child processes (seeds first to
// first+n-1)
// and prints, per metric, the median and the quartile spread
// (Q3-Q1)/median, quartiles as Python's statistics.quantiles(n=4) gives
// them.
func steadiness(ctx context.Context, name string, n int, first int64, seconds, trace int, readme, outDir string) error {
	var list []spec
	for _, s := range specs {
		if name == "all" || name == "" || s.name == name {
			list = append(list, s)
		}
	}
	if len(list) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, s := range list {
		values := map[string][]float64{}
		units := map[string]string{}
		failShares := map[string]bool{}
		for seed := first; seed < first+int64(n); seed++ {
			var stdout bytes.Buffer
			cmd := exec.CommandContext(ctx, self, "--workload", s.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace),
				"--readme", readme, "--out", outDir)
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			// On a signal the child gets SIGTERM and runs its own cleanup;
			// it is killed only if that takes longer than WaitDelay.
			cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
			cmd.WaitDelay = 60 * time.Second
			if err := cmd.Run(); err != nil {
				os.Stderr.Write(stdout.Bytes()) // the child's report names the failed check
				return fmt.Errorf("%s seed %d: %w", s.name, seed, err)
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var r result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", s.name, seed, err)
			}
			if !r.Correct {
				return fmt.Errorf("%s seed %d: checks failed", s.name, seed)
			}
			failShares[fmt.Sprintf("%d/%d", r.Failed, r.Attempted)] = true
			for k, v := range r.Metrics {
				values[k] = append(values[k], v.Value)
				units[k] = v.Unit
			}
			fmt.Fprintf(os.Stderr, "servebench: %s seed %d done\n", s.name, seed)
		}
		var names []string
		for k := range values {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Printf("workload %s, %d runs (seeds %d to %d), %ds each\n", s.name, n, first, first+int64(n)-1, seconds)
		for _, k := range names {
			med, q1, q3 := quartiles(values[k])
			spread := math.NaN()
			if med != 0 {
				spread = (q3 - q1) / math.Abs(med)
			}
			fmt.Printf("  %-28s median %12.4f %-6s  q1 %12.4f  q3 %12.4f  spread %6.1f%%  runs %s\n", k, med, units[k], q1, q3, 100*spread, fmtValues(values[k]))
		}
		var shares []string
		for k := range failShares {
			shares = append(shares, k)
		}
		sort.Strings(shares)
		fmt.Printf("  failed/attempted: %s\n", strings.Join(shares, ", "))
	}
	return nil
}

// quartiles returns the median, Q1 and Q3 of xs by the "exclusive" method
// of Python's statistics.quantiles.
func quartiles(xs []float64) (med, q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		delta := i*m - j*4
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(2), q(1), q(3)
}

func fmtValues(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}
