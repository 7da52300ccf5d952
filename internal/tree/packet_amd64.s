//go:build !purego

#include "go_asm.h"
#include "textflag.h"

// The packet sweep's force terms on AVX2 (packet.go's mac and leaf). A
// packet's eight lanes are two YMM halves of four float64 lanes: lanes
// 0-3 at byte offset 0 of each [8] column, lanes 4-7 at offset 32. Every
// float result is one correctly rounded VSUBPD, VMULPD, VADDPD, VSQRTPD
// or VDIVPD applied to the operands the Go body combines, in its order,
// so each lane's bits are those of the Go body; nothing here may fuse a
// multiply and an add. A skipped leaf term is masked to +0, which its
// accumulator (begun at +0, so never −0) absorbs unchanged; what reaches
// a frame, which may hold −0, is blended, never added as a zero. Only
// VEX-encoded instructions are used: one legacy SSE instruction with the
// YMM upper halves dirty costs a state transition on every call. Packet
// and frame fields are read at their go_asm.h offsets.

// ACTMASK sets LO and HI to the lane masks (all ones per active lane) of
// the frame mask byte at m.
#define ACTMASK(m, LO, HI) \
	MOVBQZX m, AX; \
	VMOVQ AX, X0; \
	VPBROADCASTQ X0, Y0; \
	VPAND avxConsts_bit(R12), Y0, LO; \
	VPCMPEQQ avxConsts_bit(R12), LO, LO; \
	VPAND (avxConsts_bit+32)(R12), Y0, HI; \
	VPCMPEQQ (avxConsts_bit+32)(R12), HI, HI

// MACHALF runs mac for the half at byte offset OFF with active lanes ACT:
// the prefilter s2 < a2·n2·macLo accepts, s2 > a2·n2·macHi rejects, and a
// lane neither decides is a sliver lane. ACC and SLV get the half's
// accept and sliver bits. Cx, cy, cz, s2, a2, gm are in Y8-Y13.
#define MACHALF(OFF, ACT, ACC, SLV, SKIP) \
	VSUBPD (Packet_px+OFF)(DI), Y8, Y0; \
	VSUBPD (Packet_py+OFF)(DI), Y9, Y1; \
	VSUBPD (Packet_pz+OFF)(DI), Y10, Y2; \
	VMULPD Y0, Y0, Y3; \
	VMULPD Y1, Y1, Y4; \
	VADDPD Y4, Y3, Y3; \
	VMULPD Y2, Y2, Y4; \
	VADDPD Y4, Y3, Y3; \
	VMULPD Y3, Y12, Y4; \
	VMULPD avxConsts_lo(R12), Y4, Y5; \
	VCMPPD $1, Y5, Y11, Y5; \
	VMULPD avxConsts_hi(R12), Y4, Y4; \
	VCMPPD $1, Y11, Y4, Y4; \
	VPAND ACT, Y5, Y5; \
	VPOR Y5, Y4, Y4; \
	VPANDN ACT, Y4, Y4; \
	VMOVMSKPD Y4, SLV; \
	VMOVDQU (Packet_mac+OFF)(DI), Y6; \
	VPSUBQ ACT, Y6, Y6; \
	VMOVDQU Y6, (Packet_mac+OFF)(DI); \
	VMOVMSKPD Y5, ACC; \
	TESTQ ACC, ACC; \
	JZ SKIP; \
	VBROADCASTSD e2+72(FP), Y6; \
	VADDPD Y6, Y3, Y3; \
	VSQRTPD Y3, Y3; \
	VMOVUPD avxConsts_one(R12), Y6; \
	VDIVPD Y3, Y6, Y6; \
	VMULPD Y6, Y13, Y7; \
	VMULPD Y6, Y7, Y7; \
	VMULPD Y6, Y7, Y7; \
	VMULPD Y0, Y7, Y0; \
	VMOVUPD (frame_x+OFF)(DX), Y3; \
	VADDPD Y0, Y3, Y0; \
	VBLENDVPD Y5, Y0, Y3, Y3; \
	VMOVUPD Y3, (frame_x+OFF)(DX); \
	VMULPD Y1, Y7, Y1; \
	VMOVUPD (frame_y+OFF)(DX), Y3; \
	VADDPD Y1, Y3, Y1; \
	VBLENDVPD Y5, Y1, Y3, Y3; \
	VMOVUPD Y3, (frame_y+OFF)(DX); \
	VMULPD Y2, Y7, Y2; \
	VMOVUPD (frame_z+OFF)(DX), Y3; \
	VADDPD Y2, Y3, Y2; \
	VBLENDVPD Y5, Y2, Y3, Y3; \
	VMOVUPD Y3, (frame_z+OFF)(DX); \
	VBROADCASTSD ex+80(FP), Y0; \
	VMOVUPD (Packet_extra+OFF)(DI), Y3; \
	VADDPD Y0, Y3, Y0; \
	VBLENDVPD Y5, Y0, Y3, Y3; \
	VMOVUPD Y3, (Packet_extra+OFF)(DI); \
	VMOVDQU (Packet_pc+OFF)(DI), Y3; \
	VPSUBQ Y5, Y3, Y3; \
	VMOVDQU Y3, (Packet_pc+OFF)(DI); \
SKIP:

// func macAVX2(w *Packet, f *frame, k *avxConsts, cx, cy, cz, s2, gm, a2, e2, ex float64) (acc, sliver uint8)
TEXT ·macAVX2(SB), NOSPLIT, $0-90
	MOVQ w+0(FP), DI
	MOVQ f+8(FP), DX
	MOVQ k+16(FP), R12
	ACTMASK(frame_mask(DX), Y14, Y15)
	VBROADCASTSD cx+24(FP), Y8
	VBROADCASTSD cy+32(FP), Y9
	VBROADCASTSD cz+40(FP), Y10
	VBROADCASTSD s2+48(FP), Y11
	VBROADCASTSD a2+64(FP), Y12
	VBROADCASTSD gm+56(FP), Y13
	MACHALF(0, Y14, R8, R9, maclo)
	MACHALF(32, Y15, R10, R11, machi)
	SHLQ $4, R10
	ORQ  R10, R8
	MOVB R8, acc+88(FP)
	SHLQ $4, R11
	ORQ  R11, R9
	MOVB R9, sliver+89(FP)
	VZEROUPPER
	RET

// LEAFHALF adds particle BX's terms to the half at byte offset OFF, whose
// self mask (all ones where the particle is the lane's own) is in Y5:
// dx, dy, dz, r2 = dx²+dy²+dz²+e2, and g = gm/√r2³ as the Go body rounds
// them, masked off where the particle is the lane's own or r2 == 0, as
// the Go body skips them. CNT counts the half's self matches, AX_, AY_,
// AZ_ are its accumulators, Y6 holds gm.
#define LEAFHALF(OFF, AX_, AY_, AZ_, CNT) \
	VPSUBQ Y5, CNT, CNT; \
	VBROADCASTSD (R8)(BX*8), Y0; \
	VSUBPD (Packet_px+OFF)(DI), Y0, Y0; \
	VBROADCASTSD (R9)(BX*8), Y1; \
	VSUBPD (Packet_py+OFF)(DI), Y1, Y1; \
	VBROADCASTSD (R10)(BX*8), Y2; \
	VSUBPD (Packet_pz+OFF)(DI), Y2, Y2; \
	VMULPD Y0, Y0, Y3; \
	VMULPD Y1, Y1, Y4; \
	VADDPD Y4, Y3, Y3; \
	VMULPD Y2, Y2, Y4; \
	VADDPD Y4, Y3, Y3; \
	VBROADCASTSD e2+72(FP), Y4; \
	VADDPD Y4, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VCMPPD $4, Y4, Y3, Y4; \
	VPANDN Y4, Y5, Y5; \
	VSQRTPD Y3, Y3; \
	VMOVUPD avxConsts_one(R12), Y4; \
	VDIVPD Y3, Y4, Y4; \
	VMULPD Y4, Y6, Y3; \
	VMULPD Y4, Y3, Y3; \
	VMULPD Y4, Y3, Y3; \
	VMULPD Y0, Y3, Y0; \
	VANDPD Y5, Y0, Y0; \
	VADDPD Y0, AX_, AX_; \
	VMULPD Y1, Y3, Y1; \
	VANDPD Y5, Y1, Y1; \
	VADDPD Y1, AY_, AY_; \
	VMULPD Y2, Y3, Y2; \
	VANDPD Y5, Y2, Y2; \
	VADDPD Y2, AZ_, AZ_

// FOLD adds accumulator A to the frame column at (DX) where mask M is set.
#define FOLD(col, A, M) \
	VMOVUPD col(DX), Y3; \
	VADDPD A, Y3, Y4; \
	VBLENDVPD M, Y4, Y3, Y3; \
	VMOVUPD Y3, col(DX)

// func leafAVX2(w *Packet, f *frame, k *avxConsts, ids *int32, px, py, pz, pm *float64, n int, e2 float64)
TEXT ·leafAVX2(SB), NOSPLIT, $0-80
	MOVQ w+0(FP), DI
	MOVQ k+16(FP), R12
	MOVQ ids+24(FP), SI
	MOVQ px+32(FP), R8
	MOVQ py+40(FP), R9
	MOVQ pz+48(FP), R10
	MOVQ pm+56(FP), R11
	MOVQ n+64(FP), CX
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VPXOR Y14, Y14, Y14
	VPXOR Y15, Y15, Y15
	XORQ BX, BX

leafloop:
	CMPQ BX, CX
	JGE  leafdone
	VPBROADCASTD (SI)(BX*4), Y7
	VPCMPEQD Packet_id(DI), Y7, Y7
	VBROADCASTSD (R11)(BX*8), Y6
	VMULPD avxConsts_g(R12), Y6, Y6
	VPMOVSXDQ X7, Y5
	LEAFHALF(0, Y8, Y10, Y12, Y14)
	VEXTRACTI128 $1, Y7, X5
	VPMOVSXDQ X5, Y5
	LEAFHALF(32, Y9, Y11, Y13, Y15)
	INCQ BX
	JMP  leafloop

leafdone:
	// Active lanes add their sums to the frame and their count of
	// non-self particles to pp.
	MOVQ f+8(FP), DX
	ACTMASK(frame_mask(DX), Y1, Y2)
	FOLD(frame_x, Y8, Y1)
	FOLD(frame_x+32, Y9, Y2)
	FOLD(frame_y, Y10, Y1)
	FOLD(frame_y+32, Y11, Y2)
	FOLD(frame_z, Y12, Y1)
	FOLD(frame_z+32, Y13, Y2)
	VMOVQ CX, X0
	VPBROADCASTQ X0, Y0
	VPSUBQ Y14, Y0, Y3
	VPAND Y1, Y3, Y3
	VPADDQ Packet_pp(DI), Y3, Y3
	VMOVDQU Y3, Packet_pp(DI)
	VPSUBQ Y15, Y0, Y3
	VPAND Y2, Y3, Y3
	VPADDQ (Packet_pp+32)(DI), Y3, Y3
	VMOVDQU Y3, (Packet_pp+32)(DI)
	VZEROUPPER
	RET

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	// CPUID.1:ECX bit 27 OSXSAVE, bit 28 AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	// XCR0 bits 1 and 2: the OS saves the XMM and YMM state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	// CPUID.(7,0):EBX bit 5 AVX2.
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)

no:
	RET
