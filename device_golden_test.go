package gpuperf

// Bit-identical pins on the device simulator, the reproduction's
// "measured GPU". Every field of device.Result for every registry
// kernel at default Params, and the full timing.Calibrate JSON of the
// default catalog device, are hashed and compared against
// fingerprints recorded before the event-loop rewrite. The accuracy
// goldens elsewhere round measured times to about three significant
// figures; these catch a drift of a single cycle or counter.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"gpuperf/internal/device"
	"gpuperf/internal/timing"
)

// canonicalDeviceResult renders every field of r; floats print as
// their exact IEEE-754 bits so a drift in the last ulp shows.
func canonicalDeviceResult(r device.Result) string {
	var b strings.Builder
	f := func(name string, v float64) { fmt.Fprintf(&b, "%s=%016x\n", name, math.Float64bits(v)) }
	f("cycles", r.Cycles)
	f("seconds", r.Seconds)
	fmt.Fprintf(&b, "winstrs=%d byclass=%v\n", r.WarpInstrs, r.ByClass)
	fmt.Fprintf(&b, "sbytes=%d gbytes=%d gtx=%d\n", r.SharedBytes, r.GlobalBytes, r.GlobalTransactions)
	f("busyinstr", r.BusyInstr)
	f("busyshared", r.BusyShared)
	f("busyglobal", r.BusyGlobal)
	fmt.Fprintf(&b, "sms=%d clusters=%d occ=%+v\n", r.NumSMs, r.NumClusters, r.Occupancy)
	return b.String()
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// deviceGoldens pins device.Run of each registry kernel at default
// Params. The "+early" entries run smaller instances on a 6-SM slice
// with early block release, which starts a block on an SM before the
// previous one has drained and so exercises the simulator's block
// recycling.
var deviceGoldens = map[string]string{
	"cr":             "7d0cc024890f26b78bad7940a7ed7ecbf8fe781b0ddddf84c2ea0dee9f51d9ba",
	"cr-fwd":         "0ca2e0b313ff855ec15081cdf31697fabae6d160bbd5a9147b0342d5fd924a04",
	"cr-nbc":         "789ff81bbaa4f944db2c9ab9bb9b9f659168c44affe3a4c4a6439004c0d1e8e6",
	"matmul-naive":   "baee6b77f13cff0b566e03e7a7b4bd106ed940c5f7743c2315a2842494963d7c",
	"matmul16":       "b6c089a6dfe2e1ed2fa28daf840d001c1bb246f515d80b7f555a5492084ba0a5",
	"matmul32":       "fcc3677de32d4b33ac311e3562ad4a51ef4088be4942b1cd729714d19668eb95",
	"matmul8":        "621c68cb35b5c4cc563e737bbfa33bd92cf5fdd0cc32fb4e6bb5cab0624ba91a",
	"spmv-bell-im":   "e54e7051d535d29c891287bff87fa1e483ed8a7141dc545f0939333d0d8a8363",
	"spmv-bell-imiv": "80522a10172c1c8ce01a99a3e56c1249ed95ac7ecf6f4dd9048ad51015f82155",
	"spmv-ell":       "70626291cd83ad815fb004f617a4f68954364ee3ccc3f3fe78da5a0c7cf94459",
	"cr+early":       "5bba202bbb70fcf68c2d659da30101b0004cd77b7ce61df1236a7bfee2bb4928",
	"matmul16+early": "bc338f62e390cc70527bb9ccfcd183e674844b5dd4a606565ea2e16ccb98311c",
	"spmv-ell+early": "798463dfa58a372b172269dd66fa11a7dfe47956dd6887060f71c3e55367baff",
}

type deviceGoldenCase struct {
	key  string
	name string
	dev  Device
	p    Params
}

func deviceGoldenCases() []deviceGoldenCase {
	var out []deviceGoldenCase
	for _, name := range DefaultRegistry().Names() {
		out = append(out, deviceGoldenCase{name, name, DefaultDevice(), Params{}})
	}
	early := SliceDevice(DefaultDevice(), 6)
	early.EarlyRelease = true
	for _, c := range []struct {
		name string
		size int
	}{{"cr", 48}, {"matmul16", 128}, {"spmv-ell", 2048}} {
		out = append(out, deviceGoldenCase{c.name + "+early", c.name, early, Params{Size: c.size}})
	}
	return out
}

func TestDeviceResultGolden(t *testing.T) {
	reg := DefaultRegistry()
	for _, c := range deviceGoldenCases() {
		t.Run(c.key, func(t *testing.T) {
			w, err := reg.Build(c.dev, c.name, c.p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := device.Run(c.dev, w.Launch, w.Mem)
			if err != nil {
				t.Fatal(err)
			}
			canon := canonicalDeviceResult(res)
			got := sha256Hex([]byte(canon))
			if want := deviceGoldens[c.key]; got != want {
				t.Errorf("device.Result fingerprint drift: got %s want %s\ncanonical result:\n%s", got, want, canon)
			}
		})
	}
}

// calibrationGolden pins the timing.Calibrate JSON of the default
// catalog device (gtx285), before any lazy global-bandwidth entry.
const calibrationGolden = "94a9124af7552f812a426911ae7b0142d77d942ce322f2970ec7fc746f3aa7c6"

func TestCalibrationGolden(t *testing.T) {
	dev, err := DefaultCatalog().Resolve("gtx285")
	if err != nil {
		t.Fatal(err)
	}
	cal, err := timing.Calibrate(dev)
	if err != nil {
		t.Fatal(err)
	}
	data, err := cal.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(data); got != calibrationGolden {
		t.Errorf("calibration JSON fingerprint drift: got %s want %s", got, calibrationGolden)
	}
}
