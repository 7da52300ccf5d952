//go:build !purego && (386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm)

package recio

// oneCopy: this host stores integers and floats in the wire's byte order,
// little-endian, so a column of them is copied whole.
const oneCopy = true
