package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dhisq/internal/exp"
	"dhisq/internal/telf"
)

func writeProgram(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The two board programs of Fig. 12 run to a halt, and what hisq-run
// prints above its "# board" summary is a TELF log telf.Parse reads back
// to the same text. The readout board never slips. The control board's
// first two codewords do: the paper's program books them at timeline
// cycle 1, before its pipeline has issued them — two start-up violations,
// both ahead of the first sync, and none once the boards are synchronized.
func TestFig12BoardsHaltAndLogRoundTrips(t *testing.T) {
	ctl := writeProgram(t, "control.hisq", exp.Fig12ControlBoard)
	ro := writeProgram(t, "readout.hisq", exp.Fig12ReadoutBoard)
	var stdout, stderr bytes.Buffer
	if status := run([]string{ctl, ro}, &stdout, &stderr); status != 0 {
		t.Fatalf("exit %d: %s", status, &stderr)
	}
	var events, boards []string
	for _, line := range strings.SplitAfter(stdout.String(), "\n") {
		if strings.HasPrefix(line, "# board") {
			boards = append(boards, line)
		} else {
			events = append(events, line)
		}
	}
	if len(boards) != 2 {
		t.Fatalf("want one summary line per board, got %q", boards)
	}
	for i, want := range []string{" 2 violations", " 0 violations"} {
		if !strings.Contains(boards[i], ": halted at") || !strings.Contains(boards[i], want) {
			t.Errorf("want halted with%s: %s", want, boards[i])
		}
	}
	text := strings.Join(events, "")
	log, err := telf.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) == 0 || log.Text() != text {
		t.Errorf("the printed log (%d events) does not round-trip through telf.Parse", len(log.Events))
	}
	firstSync := log.Events[len(log.Events)-1].Time
	for _, e := range log.Events {
		if e.Kind == telf.SyncDone && e.Time < firstSync {
			firstSync = e.Time
		}
	}
	for _, e := range log.Events {
		if e.Kind == telf.Violation && e.Time >= firstSync {
			t.Errorf("timing violation after the first sync (cycle %d): %v", firstSync, e)
		}
	}
}

// One program runs against an idle peer; a syntax error exits 1 naming
// the line; a board's runtime error exits 1 after the log; bad usage
// exits 2.
func TestLoneBoardErrorsAndUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-cycles", "1000", writeProgram(t, "one.hisq", "li $1, 5\nhalt\n")}, &stdout, &stderr); status != 0 ||
		!strings.Contains(stdout.String(), "# board 0: halted") {
		t.Fatalf("lone board: exit %d, stdout %q, stderr %q", status, &stdout, &stderr)
	}
	if status := run([]string{writeProgram(t, "bad.hisq", "li $1, 5\nbogus $1\n")}, &stdout, &stderr); status != 1 ||
		!strings.Contains(stderr.String(), "line 2") {
		t.Fatalf("syntax error: exit %d, stderr %q", status, &stderr)
	}
	// A board that stops on a runtime error still gets its log printed, and
	// the command fails.
	stdout.Reset()
	stderr.Reset()
	if status := run([]string{writeProgram(t, "oob.hisq", "li $1, -4\nsw $1, 0($1)\n")}, &stdout, &stderr); status != 1 ||
		!strings.Contains(stdout.String(), "# board 0 error: ") || !strings.Contains(stderr.String(), "store out of bounds") {
		t.Fatalf("runtime error: exit %d, stdout %q, stderr %q", status, &stdout, &stderr)
	}
	if status := run(nil, &stdout, &stderr); status != 2 {
		t.Fatalf("no program: exit %d, want 2", status)
	}
}

// Every address a sync, send, recv or fmr can spell runs to exit 0 or 1 on
// the 2-board fabric (controllers 0-1, router 2), never a panic. One that
// names no node the instruction can reach exits 1, naming the board, the pc
// and the address: hisq-run refuses sync, send and recv targets before
// simulating, and the controller fails on a negative fmr channel.
func TestHandWrittenAddresses(t *testing.T) {
	refused := map[string]bool{
		"recv $1, -1": true, "fmr $1, -3": true, "sync -1": true, "sync 3": true, "send $1, 2": true, "send $1, 5": true,
	}
	var progs []string
	for _, op := range []string{"sync ", "send $1, ", "recv $1, ", "fmr $1, "} {
		for _, addr := range []string{"-2048", "-1", "0", "1", "2", "3", "2047"} {
			progs = append(progs, op+addr)
		}
	}
	progs = append(progs, "fmr $1, -3", "send $1, 5")
	for _, prog := range progs {
		var stdout, stderr bytes.Buffer
		status := run([]string{"-cycles", "1000", writeProgram(t, "addr.hisq", prog+"\nhalt\n")}, &stdout, &stderr)
		if status != 0 && status != 1 {
			t.Errorf("%q: exit %d\n%s", prog, status, &stderr)
		}
		addr := prog[strings.LastIndex(prog, " ")+1:]
		if refused[prog] && (status != 1 || !strings.Contains(stderr.String(), "board 0") ||
			!strings.Contains(stderr.String(), "pc=0") || !strings.Contains(stderr.String(), "address "+addr)) {
			t.Errorf("%q: exit %d, want 1 naming board 0, pc=0 and address %s: %s", prog, status, addr, &stderr)
		}
	}
}
