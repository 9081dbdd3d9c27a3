package cli

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"mobirescue/internal/core"
	"mobirescue/internal/snapshot"
)

// sharedFlags are the flag names both commands accept; crashtest and
// the Makefile drive the commands by these names.
var sharedFlags = []string{
	"chaos", "chaos-seed", "cpuprofile", "decide-deadline", "episodes",
	"eventlog", "eventlog-timing", "load-policy", "memprofile", "obs",
	"resume", "save-policy", "scale", "seed", "snapshot-dir",
	"snapshot-every", "snapshot-keep", "teams", "train-actors",
	"train-workers", "workers",
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
			Chaos: "off", ChaosSeed: 1, SnapshotEvery: 1, SnapshotKeep: snapshot.DefaultKeep,
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
		keep     int
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
				"-obs", ":9090", "-workers", "2", "-train-workers", "3",
				"-train-actors", "5", "-save-policy", "save.ckpt",
				"-load-policy", "load.ckpt", "-eventlog", "run.jsonl",
				"-eventlog-timing", "-decide-deadline", "2s",
				"-snapshot-dir", snapDir, "-snapshot-every", "4",
				"-snapshot-keep", "2", "-resume", "-cpuprofile", "cpu.out",
				"-memprofile", "mem.out",
			},
			flags: Flags{
				Scale: "full", Episodes: 3, Teams: 9, Seed: 42,
				Chaos: "heavy", ChaosSeed: 5, Obs: ":9090", Workers: 2,
				TrainWorkers: 3, TrainActors: 5, SavePolicy: "save.ckpt",
				LoadPolicy: "load.ckpt", EventLog: "run.jsonl", EventLogTiming: true,
				DecideDeadline: 2 * time.Second, SnapshotDir: snapDir,
				SnapshotEvery: 4, SnapshotKeep: 2, Resume: true,
				CPUProfile: "cpu.out", MemProfile: "mem.out",
			},
			scenario: scenario("full", 42),
			system: system(func(c *core.SystemConfig) {
				c.Seed, c.Teams, c.Workers = 42, 9, 2
				c.TrainWorkers, c.TrainActors = 3, 5
				c.CheckpointPath = "save.ckpt"
				c.DecideTimeout = 2 * time.Second
			}),
			every: 4,
			keep:  2,
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
			if d.Mgr == nil || d.Mgr.Dir() != snapDir || d.Stop == nil {
				t.Fatalf("durability = %+v, want a manager on %s and a stop flag", d, snapDir)
			}
			if d.Every != tc.every || d.Scale != tc.flags.Scale || d.ConfigHash != core.ConfigHash(sc) {
				t.Errorf("durability = {Every %d Scale %q ConfigHash %q}, want {%d %q %q}",
					d.Every, d.Scale, d.ConfigHash, tc.every, tc.flags.Scale, core.ConfigHash(sc))
			}
			// -snapshot-keep reaches the manager: installing more than
			// keep generations leaves exactly keep on disk.
			for i := 0; i < tc.keep+2; i++ {
				if _, err := d.Mgr.Install(&snapshot.RunState{Phase: snapshot.PhaseTrain}); err != nil {
					t.Fatal(err)
				}
			}
			files, err := os.ReadDir(snapDir)
			if err != nil {
				t.Fatal(err)
			}
			if len(files) != tc.keep {
				t.Errorf("%d snapshots kept, want %d", len(files), tc.keep)
			}
		})
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
