package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("crnsim %v: exit %d, stderr:\n%s", args, code, stderr.String())
	}
	return stdout.String()
}

// TestProfileFlags checks that -cpuprofile, -memprofile and -exectrace
// write non-empty profiles and traces and leave stdout byte-identical.
func TestProfileFlags(t *testing.T) {
	args := []string{"-n", "20000", "-kappa", "64", "-plot=false"}
	plain := runCLI(t, args...)
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	profiled := runCLI(t, append(args, "-cpuprofile", cpu, "-memprofile", mem)...)
	if profiled != plain {
		t.Fatalf("profiling changed stdout:\n%s\nvs\n%s", profiled, plain)
	}
	exec := filepath.Join(dir, "trace.out")
	if traced := runCLI(t, append(args, "-exectrace", exec)...); traced != plain {
		t.Fatalf("execution tracing changed stdout:\n%s\nvs\n%s", traced, plain)
	}
	for _, path := range []string{cpu, mem, exec} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", path)
		}
	}
}

func TestProfileFlagBadPath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "cpu.out")
	for _, flag := range []string{"-cpuprofile", "-memprofile", "-exectrace"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-n", "10", "-plot=false", flag, bad}, &stdout, &stderr); code != 1 {
			t.Fatalf("%s to a missing directory: exit %d, want 1", flag, code)
		}
		if stderr.Len() == 0 {
			t.Fatalf("%s to a missing directory: no diagnostic", flag)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-no-such-flag"}, {"-protocol", "nope"}, {"-arrival", "nope"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("crnsim %v: exit %d, want 2", args, code)
		}
	}
	if code := run([]string{"-h"}, &bytes.Buffer{}, &bytes.Buffer{}); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
}
