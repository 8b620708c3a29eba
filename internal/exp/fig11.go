package exp

import (
	"fmt"
	"math"

	"dhisq/internal/chip"
	"dhisq/internal/core"
	"dhisq/internal/fit"
	"dhisq/internal/isa"
	"dhisq/internal/physics"
	"dhisq/internal/sim"
)

// The Figure 11 calibration experiments run a real HISQ core against the
// pulse-level device model: the host builds waveform tables and HISQ
// programs (cw triggers + waits, exactly the Fig. 10 flow), the controller
// commits codewords at TCU-precise times, and the device produces IQ samples
// and discriminated bits. That one unmodified core drives both AWG-style
// and readout-style actions is the §6.1 adaptability demonstration.

// calRig is a single-board rig: engine + controller + device.
type calRig struct {
	eng  *sim.Engine
	ctrl *core.Controller
	dev  *physics.Device
}

func newCalRig(seed int64) *calRig {
	eng := sim.NewEngine()
	qb := physics.NewQubit(seed)
	dev := physics.NewDevice(qb, chip.MeasLatency)
	ctrl := core.NewController(eng, core.Config{ID: 0, Ports: 28}, nil, dev, nil)
	dev.SetDelivery(func(node, ch int, val uint32, at sim.Time) { ctrl.PostResult(ch, val, at) })
	return &calRig{eng: eng, ctrl: ctrl, dev: dev}
}

// run assembles and executes a program to completion.
func (r *calRig) run(src string) error {
	r.ctrl.Load(isa.MustAssemble(src))
	return r.exec()
}

// runShots assembles src once and executes it `shots` times, resetting the
// engine and controller between repetitions — the calibration-rig instance
// of the compile-once/reset-per-shot pattern (see internal/runner for the
// machine-level subsystem). Device state deliberately survives the resets:
// the waveform table is part of the compiled artifact, the qubit RNG keeps
// advancing so shots stay statistically independent, and the IQ/bit
// accumulators are the sweep's measurement record. Every shot body begins
// with an active reset pulse, which re-anchors the qubit's Bloch vector and
// decay clock, so rewinding the engine clock does not perturb the physics.
func (r *calRig) runShots(src string, shots int) error {
	r.ctrl.Load(isa.MustAssemble(src))
	for s := 0; s < shots; s++ {
		r.eng.Reset()
		r.ctrl.Reset()
		if err := r.exec(); err != nil {
			return fmt.Errorf("shot %d: %w", s, err)
		}
	}
	return nil
}

// exec drives the loaded program to completion.
func (r *calRig) exec() error {
	r.ctrl.Start()
	r.eng.RunUntil(r.eng.Now() + 500_000_000)
	if err := r.ctrl.Err(); err != nil {
		return err
	}
	if !r.ctrl.Halted() {
		return fmt.Errorf("fig11: controller wedged (%v)", r.ctrl.Blocked())
	}
	return nil
}

const (
	drivePulseCy   = 5  // 20 ns pulses
	readoutPulseCy = 75 // 300 ns readout window
)

// Fig11CircleResult is the Fig. 11(a) phase-sweep experiment.
type Fig11CircleResult struct {
	Points  []physics.IQPoint
	Circle  fit.Circle
	RMSE    float64 // deviation from the ideal circle (interference signature)
	MaxDist float64
}

// Fig11DrawCircle emits readout pulses with linearly increasing phase and
// fits the IQ response: a circle with a small interference-driven deviation.
func Fig11DrawCircle(points int, seed int64) (Fig11CircleResult, error) {
	if points <= 0 {
		points = 64
	}
	rig := newCalRig(seed)
	src := ""
	for k := 0; k < points; k++ {
		phase := 2 * math.Pi * float64(k) / float64(points)
		cw := rig.dev.AddPulse(physics.Pulse{Kind: physics.PulseReadout, Phase: phase, Dur: readoutPulseCy})
		src += fmt.Sprintf("cw.i.i 2,%d\nwaiti %d\n", cw, readoutPulseCy+5)
	}
	src += "halt\n"
	if err := rig.run(src); err != nil {
		return Fig11CircleResult{}, err
	}
	xs := make([]float64, len(rig.dev.IQ))
	ys := make([]float64, len(rig.dev.IQ))
	for i, p := range rig.dev.IQ {
		xs[i], ys[i] = p.I, p.Q
	}
	c, err := fit.FitCircle(xs, ys)
	if err != nil {
		return Fig11CircleResult{}, err
	}
	res := Fig11CircleResult{Points: rig.dev.IQ, Circle: c, RMSE: c.RMSE(xs, ys)}
	for i := range xs {
		d := math.Hypot(xs[i]-c.X0, ys[i]-c.Y0)
		if d > res.MaxDist {
			res.MaxDist = d
		}
	}
	return res, nil
}

// sweepP1 runs, for every sweep value, `shots` repetitions of
// [reset][prep...][readout] and returns the measured P1 per value. The
// per-shot program body is produced by body(cw builder helpers). Each sweep
// value's shot program is assembled once and re-run under the reset path,
// instead of unrolling points x shots bodies into one giant binary.
func sweepP1(rig *calRig, values []float64, shots int, body func(v float64) string) ([]float64, error) {
	resetCW := rig.dev.AddPulse(physics.Pulse{Kind: physics.PulseReset})
	readCW := rig.dev.AddPulse(physics.Pulse{Kind: physics.PulseReadout, Dur: readoutPulseCy})
	for _, v := range values {
		src := fmt.Sprintf("cw.i.i 1,%d\nwaiti 2\n", resetCW)
		src += body(v)
		src += fmt.Sprintf("cw.i.i 2,%d\nwaiti %d\nhalt\n", readCW, readoutPulseCy+10)
		if err := rig.runShots(src, shots); err != nil {
			return nil, err
		}
	}
	if want := len(values) * shots; len(rig.dev.Bits) != want {
		return nil, fmt.Errorf("fig11: %d outcomes, want %d", len(rig.dev.Bits), want)
	}
	p1 := make([]float64, len(values))
	for i := range values {
		ones := 0
		for s := 0; s < shots; s++ {
			ones += rig.dev.Bits[i*shots+s]
		}
		p1[i] = float64(ones) / float64(shots)
	}
	return p1, nil
}

// Fig11SpectroscopyResult is the Fig. 11(b) frequency sweep.
type Fig11SpectroscopyResult struct {
	FreqGHz []float64
	P1      []float64
	Fit     fit.Lorentzian
	TrueF0  float64
}

// Fig11Spectroscopy sweeps the drive frequency and fits the resonance.
func Fig11Spectroscopy(points, shots int, seed int64) (Fig11SpectroscopyResult, error) {
	if points <= 0 {
		points = 41
	}
	if shots <= 0 {
		shots = 60
	}
	rig := newCalRig(seed)
	freqs := make([]float64, points)
	for i := range freqs {
		freqs[i] = 4.52 + 0.2*float64(i)/float64(points-1) // 4.52..4.72 GHz
	}
	p1, err := sweepP1(rig, freqs, shots, func(f float64) string {
		cw := rig.dev.AddPulse(physics.Pulse{
			Kind: physics.PulseDrive, Freq: f, Rabi: 0.025, Dur: drivePulseCy,
		})
		return fmt.Sprintf("cw.i.i 0,%d\nwaiti %d\n", cw, drivePulseCy+2)
	})
	if err != nil {
		return Fig11SpectroscopyResult{}, err
	}
	lor, err := fit.FitLorentzian(freqs, p1)
	if err != nil {
		return Fig11SpectroscopyResult{}, err
	}
	return Fig11SpectroscopyResult{FreqGHz: freqs, P1: p1, Fit: lor, TrueF0: rig.dev.Qubit.FreqGHz}, nil
}

// Fig11RabiResult is the Fig. 11(c) amplitude sweep.
type Fig11RabiResult struct {
	Amp    []float64
	P1     []float64
	Fit    fit.Rabi
	PiAmp  float64
	TruePi float64
}

// Fig11Rabi sweeps the drive amplitude at the qubit frequency and fits the
// oscillation, yielding the pi-pulse amplitude for a high-fidelity X gate.
func Fig11Rabi(points, shots int, seed int64) (Fig11RabiResult, error) {
	if points <= 0 {
		points = 33
	}
	if shots <= 0 {
		shots = 60
	}
	rig := newCalRig(seed)
	f0 := rig.dev.Qubit.FreqGHz
	amps := make([]float64, points)
	for i := range amps {
		amps[i] = 0.12 * float64(i) / float64(points-1) // Rabi rate, GHz
	}
	p1, err := sweepP1(rig, amps, shots, func(a float64) string {
		cw := rig.dev.AddPulse(physics.Pulse{
			Kind: physics.PulseDrive, Freq: f0, Rabi: a, Dur: drivePulseCy,
		})
		return fmt.Sprintf("cw.i.i 0,%d\nwaiti %d\n", cw, drivePulseCy+2)
	})
	if err != nil {
		return Fig11RabiResult{}, err
	}
	rfit, err := fit.FitRabi(amps, p1)
	if err != nil {
		return Fig11RabiResult{}, err
	}
	// Pi rotation: 2*pi*rabi * t_ns = pi -> rabi = 1/(2 t_ns).
	truePi := 1 / (2 * float64(sim.Nanoseconds(drivePulseCy)))
	return Fig11RabiResult{Amp: amps, P1: p1, Fit: rfit, PiAmp: rfit.PiAmplitude(), TruePi: truePi}, nil
}

// Fig11T1Result is the Fig. 11(d) relaxation measurement.
type Fig11T1Result struct {
	DelayUs  []float64
	P1       []float64
	Fit      fit.Exponential
	T1Us     float64
	TrueT1Us float64
}

// Fig11T1 prepares |1> with a pi pulse, waits a register-programmed delay
// (waitr — the long waits exercise the li expansion), and measures the decay.
func Fig11T1(points, shots int, seed int64) (Fig11T1Result, error) {
	if points <= 0 {
		points = 21
	}
	if shots <= 0 {
		shots = 80
	}
	rig := newCalRig(seed)
	f0 := rig.dev.Qubit.FreqGHz
	truePi := 1 / (2 * float64(sim.Nanoseconds(drivePulseCy)))
	piCW := rig.dev.AddPulse(physics.Pulse{
		Kind: physics.PulseDrive, Freq: f0, Rabi: truePi, Dur: drivePulseCy,
	})
	delays := make([]float64, points)
	for i := range delays {
		delays[i] = 30_000 * float64(i) / float64(points-1) // ns, up to 30 us
	}
	p1, err := sweepP1(rig, delays, shots, func(d float64) string {
		cy := sim.Cycles(int64(d))
		return fmt.Sprintf("cw.i.i 0,%d\nwaiti %d\nli $3,%d\nwaitr $3\n", piCW, drivePulseCy, cy)
	})
	if err != nil {
		return Fig11T1Result{}, err
	}
	us := make([]float64, len(delays))
	for i, d := range delays {
		us[i] = d / 1000
	}
	efit, err := fit.FitExponential(us, p1)
	if err != nil {
		return Fig11T1Result{}, err
	}
	return Fig11T1Result{
		DelayUs: us, P1: p1, Fit: efit,
		T1Us: efit.Tau, TrueT1Us: rig.dev.Qubit.T1ns / 1000,
	}, nil
}

// runFig11 runs the four panels of Figure 11 at dhisq-bench's sizes and
// prints each fit beside its true and published value.
func runFig11(a Args) (*Report, error) {
	circle, err := Fig11DrawCircle(64, a.Seed)
	if err != nil {
		return nil, err
	}
	spec, err := Fig11Spectroscopy(41, 80, a.Seed)
	if err != nil {
		return nil, err
	}
	rabi, err := Fig11Rabi(33, 80, a.Seed)
	if err != nil {
		return nil, err
	}
	t1, err := Fig11T1(21, 150, a.Seed)
	if err != nil {
		return nil, err
	}
	return &Report{Rows: []any{circle, spec, rabi, t1}, Gates: fig11Gates(spec, t1), Text: fmt.Sprintf(
		"(a) draw circle:   R=%.3f center=(%.3f,%.3f) interference RMSE=%.4f\n"+
			"(b) spectroscopy:  f0=%.4f GHz (true %.4f, paper 4.62)\n"+
			"(c) rabi:          pi amplitude=%.4f (true %.4f)\n"+
			"(d) relaxation:    T1=%.2f us (true %.2f, paper 9.9)\n",
		circle.Circle.R, circle.Circle.X0, circle.Circle.Y0, circle.RMSE,
		spec.Fit.X0, spec.TrueF0, rabi.PiAmp, rabi.TruePi, t1.T1Us, t1.TrueT1Us)}, nil
}

// fig11T1Tolerance is how far, as a fraction of the device's T1, the
// Fig. 11(d) fit may land from it. At dhisq-bench's 21 delays × 150 shots
// the worst of seeds 1–30 is 10.7 % (the paper's own cross-check
// differed by 3 %: 9.9 vs 10.2 µs).
const fig11T1Tolerance = 0.2

// fig11Gates holds the §6.1 calibration loop to the device it calibrates:
// one unmodified HISQ core drives the AWG-style and readout-style actions
// that find the qubit.
//
//   - resonance_ghz: the spectroscopy fit is within 0.02 GHz of the
//     paper's 4.62 GHz resonance (the value is the distance).
//   - t1_fit: the relaxation fit is within fig11T1Tolerance of the
//     device's T1 (the value is the relative error).
func fig11Gates(spec Fig11SpectroscopyResult, t1 Fig11T1Result) []Gate {
	return []Gate{
		NewGate("resonance_ghz", math.Abs(spec.Fit.X0-4.62), "<=", 0.02),
		NewGate("t1_fit", math.Abs(t1.T1Us-t1.TrueT1Us)/t1.TrueT1Us, "<=", fig11T1Tolerance),
	}
}
