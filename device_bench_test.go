package gpuperf

import (
	"testing"

	"gpuperf/internal/device"
)

// BenchmarkDeviceRun times the device simulator alone on every
// registry kernel at default Params on the GTX 285. Each iteration
// rebuilds the workload's memory outside the timer (a run consumes
// it); winstr/s is simulated warp instructions per second of
// simulator time.
func BenchmarkDeviceRun(b *testing.B) {
	dev := DefaultDevice()
	reg := DefaultRegistry()
	for _, name := range reg.Names() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var winstrs int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w, err := reg.Build(dev, name, Params{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := device.Run(dev, w.Launch, w.Mem)
				if err != nil {
					b.Fatal(err)
				}
				winstrs += res.WarpInstrs
			}
			b.ReportMetric(float64(winstrs)/b.Elapsed().Seconds(), "winstr/s")
		})
	}
}
