package transport

import "math"

// GoldenSamples is one fixed value per wire type of the transport block
// (nil and empty slices included), for the external golden-bytes test.
var GoldenSamples = []any{
	true, false,
	int(-42),
	int32(7),
	int64(1 << 40),
	uint64(math.MaxUint64),
	float64(3.25), math.Inf(-1),
	"κόσμος", "",
	[]byte{1, 2, 3}, []byte(nil), []byte{},
	[]int{4, -5}, []int(nil), []int{},
	[]int32{6, -7}, []int32(nil), []int32{},
	[]uint64{7, 8, 9}, []uint64(nil), []uint64{},
	[]float64{math.Pi, 1.5, math.SmallestNonzeroFloat64}, []float64(nil), []float64{},
	[2]float64{0.5, -0.5},
	struct{}{},
	[]string{"a", "", "bc"}, []string(nil), []string{},
	helloBody{Addr: "127.0.0.1:7001"},
	welcomeBody{ProcID: 2, Addrs: []string{"127.0.0.1:7000", "127.0.0.1:7001"}}, welcomeBody{},
	identBody{Src: 3},
	pingBody{Nanos: 123456789},
}
