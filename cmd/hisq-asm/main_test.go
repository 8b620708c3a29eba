package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dhisq/internal/exp"
	"dhisq/internal/isa"
)

// Assemble to a binary, disassemble it, assemble the text again: every
// step agrees with isa.Assemble + EncodeProgram on the same source.
func TestAssembleDisassembleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src, bin, text, bin2 := filepath.Join(dir, "ctl.hisq"), filepath.Join(dir, "ctl.bin"), filepath.Join(dir, "ctl.txt"), filepath.Join(dir, "ctl2.bin")
	if err := os.WriteFile(src, []byte(exp.Fig12ControlBoard), 0o644); err != nil {
		t.Fatal(err)
	}
	want, err := isa.EncodeProgram(isa.MustAssemble(exp.Fig12ControlBoard))
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"-o", bin, src}, {"-d", "-o", text, bin}, {"-o", bin2, text}} {
		var stdout, stderr bytes.Buffer
		if status := run(args, &stdout, &stderr); status != 0 || stdout.Len() != 0 {
			t.Fatalf("hisq-asm %v: exit %d, stdout %q, stderr %q", args, status, &stdout, &stderr)
		}
	}
	for _, path := range []string{bin, bin2} {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from isa.Assemble + EncodeProgram", path)
		}
	}

	// Without -o: one listing line per instruction, and -d prints the text
	// it would have written.
	var listing, printed, stderr bytes.Buffer
	if status := run([]string{src}, &listing, &stderr); status != 0 {
		t.Fatalf("listing: exit %d: %s", status, &stderr)
	}
	if got := strings.Count(listing.String(), "\n"); got != len(want)/4 {
		t.Errorf("listing has %d lines for %d instructions", got, len(want)/4)
	}
	if status := run([]string{"-d", bin}, &printed, &stderr); status != 0 {
		t.Fatalf("-d: exit %d: %s", status, &stderr)
	}
	if onDisk, _ := os.ReadFile(text); printed.String() != string(onDisk) {
		t.Errorf("-d printed %q, -d -o wrote %q", &printed, onDisk)
	}
}

// A syntax error exits 1 naming the line; bad usage exits 2.
func TestErrorsAndUsage(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.hisq")
	if err := os.WriteFile(bad, []byte("li $1, 5\nbogus $1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if status := run([]string{bad}, &stdout, &stderr); status != 1 || !strings.Contains(stderr.String(), "line 2") {
		t.Fatalf("syntax error: exit %d, stderr %q", status, &stderr)
	}
	if status := run([]string{filepath.Join(t.TempDir(), "missing.hisq")}, &stdout, &stderr); status != 1 {
		t.Fatalf("missing file: exit %d", status)
	}
	if status := run(nil, &stdout, &stderr); status != 2 {
		t.Fatalf("no file: exit %d, want 2", status)
	}
}
