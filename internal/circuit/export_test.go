package circuit

// Hooks for the external test package (qasm_diff_test.go), which needs
// internal/workloads — a package that imports this one — for its sources.

// RefParseQASM is the pre-scanner parser of qasm_reference_test.go.
var RefParseQASM = refParseQASM

// AngleGrammarSpellings returns every angle text TestParseAngleGrammar
// pins, accepted and rejected.
func AngleGrammarSpellings() []string {
	var out []string
	for _, tc := range angleGrammarCases {
		out = append(out, tc.in)
	}
	return append(out, angleGrammarBad...)
}
