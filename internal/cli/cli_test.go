package cli

import (
	"context"
	"flag"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mobirescue/internal/core"
	"mobirescue/internal/obs"
	"mobirescue/internal/obs/eventlog"
	"mobirescue/internal/snapshot"
)

// sharedFlags are the flag names both commands accept; crashtest and
// the Makefile drive the commands by these names.
var sharedFlags = []string{
	"chaos", "chaos-seed", "cpuprofile", "episodes", "eventlog",
	"eventlog-timing", "load-policy", "memprofile", "obs", "resume",
	"save-policy", "scale", "seed", "snapshot-dir", "snapshot-every",
	"teams", "workers",
}

func parse(t *testing.T, d Defaults, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, d)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

func TestRegisterDeclaresSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs, MobiRescue)
	var names []string
	fs.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name) })
	sort.Strings(names)
	if !reflect.DeepEqual(names, sharedFlags) {
		t.Errorf("declared flags %v, want %v", names, sharedFlags)
	}
}

func TestFlagsBind(t *testing.T) {
	snapDir := filepath.Join(t.TempDir(), "snaps")
	scenario := func(scale string, seed int64) core.ScenarioConfig {
		cfg, err := core.ScenarioConfigForScale(scale)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = seed
		return cfg
	}
	system := func(edit func(*core.SystemConfig)) core.SystemConfig {
		cfg := core.DefaultSystemConfig()
		edit(&cfg)
		return cfg
	}
	defaults := func(scale string, episodes int) Flags {
		return Flags{
			Scale: scale, Episodes: episodes, Seed: 1,
			Chaos: "off", ChaosSeed: 1, SnapshotEvery: 1,
		}
	}
	tests := []struct {
		name     string
		defaults Defaults
		args     []string
		flags    Flags
		scenario core.ScenarioConfig
		system   core.SystemConfig
		every    int // Durability.Every; 0 = durability off
	}{
		{
			name:     "mobirescue defaults",
			defaults: MobiRescue,
			flags:    defaults("small", 6),
			scenario: scenario("small", 1),
			system:   system(func(*core.SystemConfig) {}),
		},
		{
			name:     "experiments defaults",
			defaults: Experiments,
			flags:    defaults("mid", 0),
			scenario: scenario("mid", 1),
			system:   system(func(*core.SystemConfig) {}),
		},
		{
			name:     "experiments skips training",
			defaults: Experiments,
			args:     []string{"-episodes", "-1"},
			flags:    defaults("mid", -1),
			scenario: scenario("mid", 1),
			system:   system(func(*core.SystemConfig) {}),
		},
		{
			name:     "every shared flag set",
			defaults: MobiRescue,
			args: []string{
				"-scale", "full", "-episodes", "3", "-teams", "9", "-seed", "42",
				"-chaos", "heavy", "-chaos-seed", "5",
				"-obs", ":9090", "-workers", "2", "-save-policy", "save.ckpt",
				"-load-policy", "load.ckpt", "-eventlog", "run.jsonl",
				"-eventlog-timing", "-snapshot-dir", snapDir,
				"-snapshot-every", "4", "-resume", "-cpuprofile", "cpu.out",
				"-memprofile", "mem.out",
			},
			flags: Flags{
				Scale: "full", Episodes: 3, Teams: 9, Seed: 42,
				Chaos: "heavy", ChaosSeed: 5, Obs: ":9090", Workers: 2,
				SavePolicy: "save.ckpt", LoadPolicy: "load.ckpt",
				EventLog: "run.jsonl", EventLogTiming: true,
				SnapshotDir: snapDir, SnapshotEvery: 4, Resume: true,
				CPUProfile: "cpu.out", MemProfile: "mem.out",
			},
			scenario: scenario("full", 42),
			system: system(func(c *core.SystemConfig) {
				c.Seed, c.Teams, c.Workers = 42, 9, 2
			}),
			every: 4,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			f := parse(t, tc.defaults, tc.args...)
			if !reflect.DeepEqual(*f, tc.flags) {
				t.Errorf("flags = %+v\nwant    %+v", *f, tc.flags)
			}
			if err := f.validate(); err != nil {
				t.Errorf("validate: %v", err)
			}
			sc, err := f.ScenarioConfig()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sc, tc.scenario) {
				t.Errorf("scenario config = %+v\nwant %+v", sc, tc.scenario)
			}
			if got := f.systemConfig(nil, nil); !reflect.DeepEqual(got, tc.system) {
				t.Errorf("system config = %+v\nwant %+v", got, tc.system)
			}
			d, err := f.durability(sc)
			if err != nil {
				t.Fatal(err)
			}
			if tc.every == 0 {
				if !reflect.DeepEqual(d, core.Durability{}) {
					t.Errorf("durability without -snapshot-dir = %+v, want off", d)
				}
				return
			}
			if d.Mgr == nil || d.Stop == nil {
				t.Fatalf("durability = %+v, want a manager on %s and a stop flag", d, snapDir)
			}
			if d.Every != tc.every || d.Scale != tc.flags.Scale || d.ConfigHash != core.ConfigHash(sc) {
				t.Errorf("durability = {Every %d Scale %q ConfigHash %q}, want {%d %q %q}",
					d.Every, d.Scale, d.ConfigHash, tc.every, tc.flags.Scale, core.ConfigHash(sc))
			}
			// The manager keeps snapshot.DefaultKeep generations:
			// installing more leaves exactly that many on disk.
			for i := 0; i < snapshot.DefaultKeep+2; i++ {
				if _, err := d.Mgr.Install(&snapshot.RunState{Phase: snapshot.PhaseTrain}); err != nil {
					t.Fatal(err)
				}
			}
			files, err := os.ReadDir(snapDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != snapshot.DefaultKeep {
				t.Errorf("%d snapshots kept, want %d", len(files), snapshot.DefaultKeep)
			}
		})
	}
}

// TestValidateRejectsNegativeCounts pins that a negative count is a
// usage error before anything is built, rather than an error after the
// scenario is built or a silent fall back to the default.
func TestValidateRejectsNegativeCounts(t *testing.T) {
	for _, d := range []Defaults{MobiRescue, Experiments} {
		for _, name := range []string{"workers", "teams", "snapshot-every"} {
			if err := parse(t, d, "-"+name, "-1").validate(); err == nil {
				t.Errorf("%s: -%s -1 accepted", d.Scale, name)
			}
			if err := parse(t, d, "-"+name, "0").validate(); err != nil {
				t.Errorf("%s: -%s 0 rejected: %v", d.Scale, name, err)
			}
		}
	}
}

// TestScenarioConfigValidates pins the checks on the path a command
// that fills Flags itself takes (cmd/mobiserve): ScenarioConfig rejects
// what Parse rejects, before any scenario is built.
func TestScenarioConfigValidates(t *testing.T) {
	for _, f := range []Flags{
		{Scale: "small", Workers: -1},
		{Scale: "small", Teams: -1},
	} {
		if _, err := f.ScenarioConfig(); err == nil {
			t.Errorf("%+v accepted", f)
		}
	}
	if _, err := (&Flags{Scale: "small", Teams: 3, Workers: 2}).ScenarioConfig(); err != nil {
		t.Errorf("valid flags rejected: %v", err)
	}
}

func TestResumeNeedsSnapshotDir(t *testing.T) {
	for _, d := range []Defaults{MobiRescue, Experiments} {
		if err := parse(t, d, "-resume").validate(); err == nil {
			t.Errorf("%s: -resume without -snapshot-dir accepted", d.Scale)
		}
		if err := parse(t, d, "-resume", "-snapshot-dir", t.TempDir()).validate(); err != nil {
			t.Errorf("%s: -resume with -snapshot-dir rejected: %v", d.Scale, err)
		}
	}
}

// TestOpenFingerprintsBuiltScenario pins one scenario identity for every
// command: the event-log manifest and the snapshots carry the hash of
// the built scenario's configuration, whose City.Seed BuildScenario sets
// from -seed, not the hash of the configuration the flags describe.
func TestOpenFingerprintsBuiltScenario(t *testing.T) {
	dir := t.TempDir()
	snapDir := filepath.Join(dir, "snaps")
	logPath := filepath.Join(dir, "run.jsonl")
	args := []string{"-scale", "small", "-seed", "2", "-snapshot-dir", snapDir}
	f := parse(t, MobiRescue, append(args, "-eventlog", logPath)...)
	cfg, err := f.ScenarioConfig()
	if err != nil {
		t.Fatal(err)
	}
	logger := obs.NewLogger(io.Discard, slog.LevelError)
	_, sys, err := f.Build(context.Background(), cfg, nil, logger)
	if err != nil {
		t.Fatal(err)
	}
	want := core.ConfigHash(sys.Scenario.Config)
	if want == core.ConfigHash(cfg) {
		t.Fatal("at seed 2 the built configuration should hash differently from the flags' configuration")
	}

	run, err := f.Open(sys, "MobiRescue", nil, logger)
	if err != nil {
		t.Fatal(err)
	}
	run.Close()
	rl, err := eventlog.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Manifest.ConfigHash != want {
		t.Errorf("manifest config_hash = %s, want %s", rl.Manifest.ConfigHash, want)
	}

	// The durability hash: -resume accepts a snapshot stamped with it.
	mgr, err := snapshot.NewManager(snapDir, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := &snapshot.RunState{ConfigHash: want, Seed: 2, Method: "MobiRescue", Phase: snapshot.PhaseTrain}
	if _, err := mgr.Install(st); err != nil {
		t.Fatal(err)
	}
	resumed, err := parse(t, MobiRescue, append(args, "-resume")...).Open(sys, "MobiRescue", nil, logger)
	if err != nil {
		t.Fatalf("durability hash differs from the built configuration's: %v", err)
	}
	if resumed.Resume == nil {
		t.Fatal("-resume found no snapshot")
	}
}
