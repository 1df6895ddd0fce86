package experiment

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/device"
	"repro/internal/energy"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/wlan"
	"repro/internal/workload"
)

// PowerRow is one row of Table 1: a device state and its measured current.
type PowerRow struct {
	CPU        device.CPUState
	Radio      device.RadioState
	PowerSave  bool
	NICService bool
	MeasuredMA float64
	TableMA    float64 // the state's constant from the paper's Table 1 (device.PowerTable)
}

// Table1 reproduces the power-parameter table by putting the simulated
// device in each state for a second and reading the metered average
// current.
func Table1() ([]PowerRow, error) {
	rows := []PowerRow{
		{CPU: device.CPUIdle, Radio: device.RadioSleep},
		{CPU: device.CPUBusy, Radio: device.RadioSleep},
		{CPU: device.CPUIdle, Radio: device.RadioIdle},
		{CPU: device.CPUIdle, Radio: device.RadioIdle, PowerSave: true},
		{CPU: device.CPUBusy, Radio: device.RadioIdle},
		{CPU: device.CPUBusy, Radio: device.RadioIdle, PowerSave: true},
		{CPU: device.CPUIdle, Radio: device.RadioRecv},
		{CPU: device.CPUIdle, Radio: device.RadioRecv, PowerSave: true},
		{CPU: device.CPUBusy, Radio: device.RadioRecv},
		{CPU: device.CPUBusy, Radio: device.RadioRecv, PowerSave: true},
		{CPU: device.CPUIdle, Radio: device.RadioRecv, NICService: true},
		{CPU: device.CPUIdle, Radio: device.RadioRecv, PowerSave: true, NICService: true},
	}
	for i := range rows {
		row := &rows[i]
		res, err := pipeline.Drive(energy.RateConfig{}, func(k *sim.Kernel, d *device.Device, _ *wlan.Link, done func()) {
			d.SetCPU(row.CPU)
			d.SetRadio(row.Radio)
			d.SetPowerSave(row.PowerSave)
			d.SetNICActive(row.NICService)
			row.TableMA = d.CurrentMA()
			k.Schedule(time.Second, done)
		})
		if err != nil {
			return nil, err
		}
		row.MeasuredMA = res.AvgCurrentMA
	}
	return rows, nil
}

// RenderTable1 formats the power table.
func RenderTable1(rows []PowerRow) string {
	var b strings.Builder
	b.WriteString("Table 1: power parameters (mA at 5 V)\n")
	b.WriteString(header(
		fmt.Sprintf("%-10s", "iPAQ"),
		fmt.Sprintf("%-10s", "WaveLAN"),
		fmt.Sprintf("%-12s", "PowerSaving"),
		fmt.Sprintf("%10s", "measured"),
		fmt.Sprintf("%10s", "paper"),
	))
	for _, r := range rows {
		cpu := r.CPU.String()
		if r.NICService {
			cpu = "- (NIC)"
		}
		ps := "off"
		if r.PowerSave {
			ps = "on"
		}
		fmt.Fprintf(&b, "%-10s%-10s%-12s%10.1f%10.1f\n", cpu, r.Radio, ps, r.MeasuredMA, r.TableMA)
	}
	return b.String()
}

// FactorRow is one row of Table 2: a file and its compression factors.
type FactorRow struct {
	Spec     workload.FileSpec
	SizeUsed int
	Gzip     float64
	Compress float64
	Bzip2    float64
}

// Table2 compresses every corpus file with the three schemes at the
// paper's settings and reports the measured factors next to the published
// ones.
func (c Config) Table2() ([]FactorRow, error) {
	specs := c.files()
	rows := make([]FactorRow, 0, len(specs))
	for _, spec := range specs {
		data := spec.Generate()
		row := FactorRow{Spec: spec, SizeUsed: len(data)}
		for _, s := range codec.Schemes() {
			cdc, err := codec.New(s, 0)
			if err != nil {
				return nil, err
			}
			comp, err := cdc.Compress(data)
			if err != nil {
				return nil, fmt.Errorf("%s/%v: %w", spec.Name, s, err)
			}
			f := codec.Factor(len(data), len(comp))
			switch s {
			case codec.Gzip:
				row.Gzip = f
			case codec.Compress:
				row.Compress = f
			case codec.Bzip2:
				row.Bzip2 = f
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTable2 formats the factor table with paper-vs-measured columns.
func RenderTable2(rows []FactorRow) string {
	var b strings.Builder
	b.WriteString("Table 2: test files and compression factors (measured | paper)\n")
	b.WriteString(header(
		fmt.Sprintf("%-24s", "name"),
		fmt.Sprintf("%10s", "size"),
		fmt.Sprintf("%16s", "gzip"),
		fmt.Sprintf("%16s", "compress"),
		fmt.Sprintf("%16s", "bzip2"),
	))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s%10d%8.2f |%5.2f%9.2f |%5.2f%9.2f |%5.2f\n",
			r.Spec.Name, r.SizeUsed,
			r.Gzip, r.Spec.PaperGzip,
			r.Compress, r.Spec.PaperCompress,
			r.Bzip2, r.Spec.PaperBzip2)
	}
	return b.String()
}

// Table3Rows returns the file-description table.
func Table3Rows() []workload.FileSpec { return workload.Table2() }

// RenderTable3 formats the file descriptions.
func RenderTable3() string {
	var b strings.Builder
	b.WriteString("Table 3: test file type information\n")
	b.WriteString(header(fmt.Sprintf("%-24s", "name"), fmt.Sprintf("%-40s", "description")))
	for _, s := range Table3Rows() {
		fmt.Fprintf(&b, "%-24s%-40s\n", s.Name, s.Description)
	}
	return b.String()
}
