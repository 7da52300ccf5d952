//go:build purego || !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package recio

// oneCopy: under purego, and on a big-endian host, every column is coded
// record by record.
const oneCopy = false
