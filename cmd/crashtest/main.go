// Command crashtest is the kill -9 fuzz harness for the crash-safe run
// machinery (internal/snapshot, -snapshot-dir/-resume): it proves that
// a mobirescue run killed at an arbitrary moment and resumed — possibly
// several times — still produces a byte-identical flight-recorder
// stream, and that a damaged newest snapshot falls back to the previous
// valid generation.
//
// Usage:
//
//	crashtest -bin ./mobirescue [-runs N] [-min-kills N] [-scale small] [-episodes 8] [-workers 2] [-seed 7] [-kill-seed 1] [-min-delay 500ms] [-max-delay d] [-dir d] [-keep]
//
// Procedure:
//
//  1. Reference: run the binary uninterrupted with -eventlog and
//     -snapshot-dir; its event log is the ground truth.
//  2. Kill cycles: for each of -runs cycles (continuing until at least
//     -min-kills SIGKILLs have landed), launch the same command in a
//     fresh directory, SIGKILL it after a random delay drawn from
//     [-min-delay, -max-delay], then re-launch with -resume (killing
//     again at a new random delay) until an attempt exits 0. The final
//     event log must equal the reference byte for byte. -max-delay
//     defaults to the reference run's wall time, which always covers
//     start-up plus the longest stretch between two snapshots, so some
//     resume outlives its kill on any machine.
//  3. Corruption drills: take a killed run with at least two snapshot
//     generations, damage the newest snapshot file (truncate it, then
//     in a second drill flip one byte), resume, and require both that
//     the run falls back to the previous valid snapshot and that the
//     final event log is still byte-identical.
//
// The kill schedule is driven by -kill-seed, so a failing fuzz run is
// reproducible. Exit code 0 means every cycle and drill passed;
// anything else is a determinism or recovery failure.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"mobirescue/internal/obs/eventlog"
)

func main() {
	var (
		bin      = flag.String("bin", "", "path to the mobirescue binary (required)")
		runs     = flag.Int("runs", 4, "kill/resume cycles to run")
		minKills = flag.Int("min-kills", 10, "keep adding cycles until this many SIGKILLs have landed")
		scale    = flag.String("scale", "small", "scenario scale passed to the binary")
		episodes = flag.Int("episodes", 8, "training episodes passed to the binary")
		workers  = flag.Int("workers", 2, "worker bound passed to the binary")
		seed     = flag.Int64("seed", 7, "run seed passed to the binary")
		killSeed = flag.Int64("kill-seed", 1, "seed for the kill-delay schedule")
		minDelay = flag.Duration("min-delay", 500*time.Millisecond, "earliest kill after launch")
		maxDelay = flag.Duration("max-delay", 0, "latest kill after launch (0 = the reference run's wall time)")
		dirFlag  = flag.String("dir", "", "work directory (default: a fresh temp dir)")
		keep     = flag.Bool("keep", false, "keep the work directory on success")
	)
	flag.Parse()
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "crashtest: -bin is required")
		os.Exit(2)
	}
	binPath, err := filepath.Abs(*bin)
	if err != nil {
		fatal(err)
	}

	dir := *dirFlag
	if dir == "" {
		if dir, err = os.MkdirTemp("", "crashtest-"); err != nil {
			fatal(err)
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	h := &harness{
		bin:      binPath,
		dir:      dir,
		rng:      rand.New(rand.NewSource(*killSeed)),
		minDelay: *minDelay,
		maxDelay: *maxDelay,
		args: []string{
			"-method", "mr",
			"-scale", *scale,
			"-episodes", strconv.Itoa(*episodes),
			"-workers", strconv.Itoa(*workers),
			"-seed", strconv.FormatInt(*seed, 10),
		},
	}

	fmt.Printf("crashtest: work dir %s\n", dir)
	ref, refDur, err := h.reference()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("crashtest: reference run %v, event log %d bytes\n", refDur.Round(time.Millisecond), len(ref))
	if h.maxDelay <= 0 {
		h.maxDelay = refDur
	}
	fmt.Printf("crashtest: kill delays drawn from [%v, %v]\n", h.minDelay, h.maxDelay.Round(time.Millisecond))

	failures := 0
	for cycle := 1; cycle <= *runs || h.kills < *minKills; cycle++ {
		if err := h.killCycle(cycle, ref); err != nil {
			fmt.Fprintf(os.Stderr, "crashtest: FAIL cycle %d: %v\n", cycle, err)
			failures++
		}
		if cycle > *runs*10 {
			fmt.Fprintf(os.Stderr, "crashtest: FAIL: %d cycles yielded only %d kills; runs too short for the kill window\n", cycle, h.kills)
			failures++
			break
		}
	}
	for _, drill := range []string{"truncate", "bitflip"} {
		if err := h.corruptionDrill(drill, ref); err != nil {
			fmt.Fprintf(os.Stderr, "crashtest: FAIL %s drill: %v\n", drill, err)
			failures++
		}
	}

	fmt.Printf("crashtest: %d kills, %d resumes, %d fallbacks, %d failures\n",
		h.kills, h.resumes, h.fallbacks, failures)
	if failures > 0 {
		os.Exit(1)
	}
	if !*keep && *dirFlag == "" {
		os.RemoveAll(dir)
	}
	fmt.Println("crashtest: PASS")
}

type harness struct {
	bin      string
	dir      string
	args     []string
	rng      *rand.Rand
	minDelay time.Duration
	maxDelay time.Duration

	kills     int
	resumes   int
	fallbacks int
}

// launch starts one invocation in runDir and SIGKILLs it after delay
// unless it exits first. It returns whether the run completed (exit 0)
// and the combined output of the attempt.
func (h *harness) launch(runDir string, resume bool, delay time.Duration) (done bool, out []byte, err error) {
	args := append(append([]string(nil), h.args...),
		"-eventlog", filepath.Join(runDir, "run.jsonl"),
		"-snapshot-dir", filepath.Join(runDir, "snaps"))
	if resume {
		args = append(args, "-resume")
	}
	cmd := exec.Command(h.bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		return false, nil, err
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	if delay > 0 {
		select {
		case err = <-waited:
		case <-time.After(delay):
			cmd.Process.Kill()
			h.kills++
			<-waited
			return false, buf.Bytes(), nil
		}
	} else {
		err = <-waited
	}
	if err != nil {
		return false, buf.Bytes(), fmt.Errorf("run exited abnormally: %w\n%s", err, buf.Bytes())
	}
	return true, buf.Bytes(), nil
}

func (h *harness) delay() time.Duration {
	span := h.maxDelay - h.minDelay
	if span <= 0 {
		return h.minDelay
	}
	return h.minDelay + time.Duration(h.rng.Int63n(int64(span)))
}

// reference runs the command uninterrupted and returns its event log.
func (h *harness) reference() ([]byte, time.Duration, error) {
	runDir := filepath.Join(h.dir, "ref")
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	done, out, err := h.launch(runDir, false, 0)
	if err != nil {
		return nil, 0, err
	}
	if !done {
		return nil, 0, fmt.Errorf("reference run did not complete\n%s", out)
	}
	log, err := os.ReadFile(filepath.Join(runDir, "run.jsonl"))
	return log, time.Since(start), err
}

// resumeToCompletion re-launches with -resume (killing at fresh random
// delays) until an attempt exits 0, then compares the event log against
// the reference.
func (h *harness) resumeToCompletion(runDir string, ref []byte) error {
	for attempt := 0; attempt < 50; attempt++ {
		h.resumes++
		done, _, err := h.launch(runDir, true, h.delay())
		if err != nil {
			return err
		}
		if done {
			return h.compare(runDir, ref)
		}
	}
	return fmt.Errorf("no attempt completed after 50 resumes")
}

func (h *harness) compare(runDir string, ref []byte) error {
	path := filepath.Join(runDir, "run.jsonl")
	got, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if bytes.Equal(got, ref) {
		return nil // byte-identical, trivially zero divergence
	}
	// Pinpoint the first divergence the way `analyze diff` would.
	var detail bytes.Buffer
	a, errA := eventlog.Read(bytes.NewReader(ref))
	b, errB := eventlog.Read(bytes.NewReader(got))
	if errA == nil && errB == nil {
		eventlog.WriteDiff(&detail, eventlog.Diff(a, b), "reference", path)
	} else {
		fmt.Fprintf(&detail, "reference parse: %v; resumed parse: %v", errA, errB)
	}
	return fmt.Errorf("event log diverged from reference (%d vs %d bytes) in %s\n%s",
		len(got), len(ref), runDir, detail.Bytes())
}

// killCycle runs one fresh-start → SIGKILL → resume-until-done cycle.
func (h *harness) killCycle(cycle int, ref []byte) error {
	runDir := filepath.Join(h.dir, fmt.Sprintf("cycle-%02d", cycle))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	delay := h.delay()
	done, _, err := h.launch(runDir, false, delay)
	if err != nil {
		return err
	}
	if done {
		// The draw outlived the run; the cycle still checks determinism.
		fmt.Printf("crashtest: cycle %d completed before the %v kill\n", cycle, delay.Round(time.Millisecond))
		return h.compare(runDir, ref)
	}
	fmt.Printf("crashtest: cycle %d killed at %v, resuming\n", cycle, delay.Round(time.Millisecond))
	return h.resumeToCompletion(runDir, ref)
}

// corruptionDrill kills a run once it holds at least two snapshot
// generations, damages the newest one, and requires the resume to fall
// back to the previous generation and still finish byte-identically.
func (h *harness) corruptionDrill(mode string, ref []byte) error {
	runDir := filepath.Join(h.dir, "drill-"+mode)
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	snapsDir := filepath.Join(runDir, "snaps")
	resume := false
	var snaps []string
	for attempt := 0; ; attempt++ {
		if attempt >= 50 {
			return fmt.Errorf("never reached two snapshot generations mid-run")
		}
		done, _, err := h.launch(runDir, resume, h.delay())
		if err != nil {
			return err
		}
		resume = true
		if snaps, err = snapshotFiles(snapsDir); err != nil {
			return err
		}
		if !done && len(snaps) >= 2 {
			break
		}
		if done {
			// Finished before we could catch it mid-run: start over.
			if err := os.RemoveAll(runDir); err != nil {
				return err
			}
			if err := os.MkdirAll(runDir, 0o755); err != nil {
				return err
			}
			resume = false
		}
	}

	newest := snaps[len(snaps)-1]
	if err := damage(newest, mode); err != nil {
		return err
	}
	fmt.Printf("crashtest: %s drill damaged %s (%d generations), resuming\n",
		mode, filepath.Base(newest), len(snaps))
	h.resumes++
	done, out, err := h.launch(runDir, true, 0)
	if err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("resume after %s did not complete\n%s", mode, out)
	}
	if !bytes.Contains(out, []byte("skipping damaged snapshot")) {
		return fmt.Errorf("resume after %s did not report the damaged snapshot\n%s", mode, out)
	}
	h.fallbacks++
	return h.compare(runDir, ref)
}

// snapshotFiles lists the snapshot generations in dir, oldest first.
func snapshotFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".mrsnap" {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(names)
	return names, nil
}

// damage corrupts path: "truncate" halves it, "bitflip" flips one bit
// in the middle (inside the checksummed region).
func damage(path, mode string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	switch mode {
	case "truncate":
		data = data[:len(data)/2]
	case "bitflip":
		data[len(data)/2] ^= 0x10
	default:
		return fmt.Errorf("unknown damage mode %q", mode)
	}
	return os.WriteFile(path, data, 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crashtest:", err)
	os.Exit(1)
}
