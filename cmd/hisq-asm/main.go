// Command hisq-asm assembles HISQ assembly into machine code and back.
//
// Usage:
//
//	hisq-asm [-d] [-o out] file.hisq     assemble (or disassemble with -d)
//
// Without -o, assembly prints a hex dump plus the instruction listing;
// disassembly prints the recovered assembly text.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"

	"dhisq/internal/isa"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hisq-asm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	disasm := fs.Bool("d", false, "disassemble a binary instead of assembling")
	out := fs.String("o", "", "output file (default stdout listing)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: hisq-asm [-d] [-o out] file")
		return 2
	}
	if err := convert(fs.Arg(0), *disasm, *out, stdout); err != nil {
		fmt.Fprintln(stderr, "hisq-asm:", err)
		return 1
	}
	return 0
}

func convert(path string, disasm bool, out string, stdout io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if disasm {
		p, err := isa.DecodeProgram(data)
		if err != nil {
			return err
		}
		if out != "" {
			return os.WriteFile(out, []byte(p.Text()), 0o644)
		}
		fmt.Fprint(stdout, p.Text())
		return nil
	}

	p, err := isa.Assemble(string(data))
	if err != nil {
		return err
	}
	code, err := isa.EncodeProgram(p)
	if err != nil {
		return err
	}
	if out != "" {
		return os.WriteFile(out, code, 0o644)
	}
	for i, in := range p.Instrs {
		w := binary.LittleEndian.Uint32(code[4*i:])
		fmt.Fprintf(stdout, "%4d  %08x  %s\n", i, w, in)
	}
	return nil
}
