package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildAmacsim compiles cmd/amacsim from the tree under test into dir. The
// build runs before any timed interval, so the parent commit and a change
// each measure their own binary.
func buildAmacsim(dir string) (string, error) {
	bin := filepath.Join(dir, "amacsim")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/amacsim")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building amacsim: %w", err)
	}
	return bin, nil
}

// childRun is one `amacsim -scenario` execution.
type childRun struct {
	wall, cpu time.Duration
	maxRSSKB  int64
	exitErr   error // nil when the child exited 0
	report    *cliReport
	parseErr  error // why report is nil
	output    string
}

// runChild executes `bin -scenario specPath` in dir and measures it from
// exec to exit. Its standard error is kept with the output for diagnosis.
func runChild(bin, specPath, dir string) (*childRun, error) {
	var out bytes.Buffer
	cmd := exec.Command(bin, "-scenario", specPath)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = &out, &out
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	waitErr := cmd.Wait()
	wall := time.Since(start)
	if cmd.ProcessState == nil {
		return nil, waitErr
	}
	c := &childRun{
		wall:    wall,
		cpu:     cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(),
		exitErr: waitErr,
		output:  out.String(),
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.maxRSSKB = ru.Maxrss // kilobytes on Linux
	}
	c.report, c.parseErr = parseReport(c.output)
	return c, nil
}

// cliReport is what the amacsim report states about a run.
type cliReport struct {
	net     network
	trials  []trialStat
	checkOK bool // "model check: all guarantees hold" (single-trial runs)
	mmbViol bool // an "MMB violations" line (single-trial runs)
}

var (
	reNetwork    = regexp.MustCompile(`^network\s+: .* \(n=(\d+), D=(-?\d+), \|E\|=(\d+), \|E'\\E\|=(\d+)\)$`)
	reSolved     = regexp.MustCompile(`^solved\s+: (true|false) \((\d+)/(\d+) deliveries\)$`)
	reCompletion = regexp.MustCompile(`^completion : (\d+) ticks`)
	reBroadcasts = regexp.MustCompile(`^broadcasts : (\d+) instances over (\d+) simulation events$`)
	reTrial      = regexp.MustCompile(`^  seed (\d+)\s*: (solved|UNSOLVED) in (\d+) ticks \((\d+)/(\d+) deliveries, (\d+) events\)$`)
)

// parseReport reads both report formats: the single-trial one (solved,
// completion and broadcasts lines) and the multi-trial one (one line per
// seed). A single-trial report carries no seed; the caller fills it in.
func parseReport(text string) (*cliReport, error) {
	rep := &cliReport{}
	var single *trialStat
	sawNetwork := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case reNetwork.MatchString(line):
			m := reNetwork.FindStringSubmatch(line)
			rep.net = network{N: atoi(m[1]), Diameter: atoi(m[2]), Edges: atoi(m[3]), GreyEdges: atoi(m[4])}
			sawNetwork = true
		case reSolved.MatchString(line):
			m := reSolved.FindStringSubmatch(line)
			single = &trialStat{Solved: m[1] == "true", Delivered: atoi(m[2]), Required: atoi(m[3])}
		case reCompletion.MatchString(line) && single != nil:
			single.Completion = int64(atoi(reCompletion.FindStringSubmatch(line)[1]))
		case reBroadcasts.MatchString(line) && single != nil:
			m := reBroadcasts.FindStringSubmatch(line)
			single.Broadcasts = atoi(m[1])
			steps, _ := strconv.ParseUint(m[2], 10, 64) // the regexp admits only digits
			single.Steps = steps
		case reTrial.MatchString(line):
			m := reTrial.FindStringSubmatch(line)
			steps, _ := strconv.ParseUint(m[6], 10, 64)
			st := trialStat{Seed: int64(atoi(m[1])), Solved: m[2] == "solved", Delivered: atoi(m[4]), Required: atoi(m[5]), Steps: steps}
			if st.Solved {
				st.Completion = int64(atoi(m[3]))
			}
			rep.trials = append(rep.trials, st)
		case strings.HasPrefix(line, "model check: all guarantees hold"):
			rep.checkOK = true
		case strings.HasPrefix(line, "MMB violations:"):
			rep.mmbViol = true
		}
	}
	if !sawNetwork {
		return nil, fmt.Errorf("no network line")
	}
	if single != nil {
		if len(rep.trials) > 0 {
			return nil, fmt.Errorf("report mixes the single-trial and per-seed formats")
		}
		rep.trials = []trialStat{*single}
	}
	if len(rep.trials) == 0 {
		return nil, fmt.Errorf("no trial results")
	}
	return rep, nil
}

// atoi parses a field a regexp has already restricted to digits.
func atoi(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}
