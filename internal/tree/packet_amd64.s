//go:build !purego

#include "go_asm.h"
#include "textflag.h"

// The packet sweep's force-mode descent on AVX2 (packet.go's sweep loop
// with its mac and leaf bodies). A packet's eight lanes are two YMM halves
// of four float64 lanes: lanes 0-3 at byte offset 0 of each [8] column,
// lanes 4-7 at offset 32. Every float result is one correctly rounded
// VSUBPD, VMULPD, VADDPD, VSQRTPD or VDIVPD applied to the operands the Go
// body combines, in its order, so each lane's bits are those of the Go
// body; nothing here may fuse a multiply and an add. A skipped leaf term
// is masked to +0, which its accumulator (begun at +0, so never −0)
// absorbs unchanged; what reaches a frame, which may hold −0, is blended,
// never added as a zero, but for the explicit zero the Go loop adds where
// a lane defers a branch. Only VEX-encoded instructions are used: one
// legacy SSE instruction with the YMM upper halves dirty costs a state
// transition. Packet, frame, deferral and Cols fields are read at their
// go_asm.h offsets.
//
// Registers across the walk: DI the Packet, R15 the Cols, R12 the
// constants, R13 the node i, R14 the depth d, DX the open frame
// &frames[d]. R15 is free because the routine reads no global: under
// dynamic linking a global's address is loaded through it.

// ACTMASK sets LO and HI to the lane masks (all ones per active lane) of
// the frame mask byte at m, which it leaves in AX; LANEMASK of the mask in
// AX.
#define ACTMASK(m, LO, HI) \
	MOVBQZX m, AX; \
	LANEMASK(LO, HI)

#define LANEMASK(LO, HI) \
	VMOVQ AX, X0; \
	VPBROADCASTQ X0, Y0; \
	VPAND avxConsts_bit(R12), Y0, LO; \
	VPCMPEQQ avxConsts_bit(R12), LO, LO; \
	VPAND (avxConsts_bit+32)(R12), Y0, HI; \
	VPCMPEQQ (avxConsts_bit+32)(R12), HI, HI

// MACHALF runs mac for the half at byte offset OFF with active lanes ACT:
// each lane is charged a MAC test; the prefilter s2 < a2·n2·macLo
// accepts, s2 > a2·n2·macHi rejects, and a lane neither decides (a sliver
// lane) takes macAccepts' exact test d = √n2, d != 0 && side/d < alpha.
// Accepted lanes add the cluster term, the extra charge (bits in CX) and
// a PC count; ACC gets the half's accept bits. Cx, cy, cz, s2, a2, gm are
// in Y8-Y13, BX is the Side column.
#define MACHALF(OFF, ACT, ACC, DECIDED, SKIP) \
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
	VMOVDQU (Packet_mac+OFF)(DI), Y6; \
	VPSUBQ ACT, Y6, Y6; \
	VMOVDQU Y6, (Packet_mac+OFF)(DI); \
	VPTEST Y4, Y4; \
	JZ DECIDED; \
	VSQRTPD Y3, Y6; \
	VXORPD Y7, Y7, Y7; \
	VCMPPD $4, Y7, Y6, Y7; \
	VPAND Y7, Y4, Y4; \
	VBROADCASTSD (BX)(R13*8), Y7; \
	VDIVPD Y6, Y7, Y7; \
	VBROADCASTSD alpha+80(FP), Y6; \
	VCMPPD $1, Y6, Y7, Y7; \
	VPAND Y7, Y4, Y4; \
	VPOR Y4, Y5, Y5; \
DECIDED: \
	VMOVMSKPD Y5, ACC; \
	TESTQ ACC, ACC; \
	JZ SKIP; \
	VBROADCASTSD e2+96(FP), Y6; \
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
	VMOVQ CX, X0; \
	VPBROADCASTQ X0, Y0; \
	VMOVUPD (Packet_extra+OFF)(DI), Y3; \
	VADDPD Y0, Y3, Y0; \
	VBLENDVPD Y5, Y0, Y3, Y3; \
	VMOVUPD Y3, (Packet_extra+OFF)(DI); \
	VMOVDQU (Packet_pc+OFF)(DI), Y3; \
	VPSUBQ Y5, Y3, Y3; \
	VMOVDQU Y3, (Packet_pc+OFF)(DI); \
SKIP:

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
	VBROADCASTSD e2+96(FP), Y4; \
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

// LEAFIDS sets Y7 to particle BX's self mask over the eight lanes' IDs
// (32-bit lanes) and Y6 to its gm.
#define LEAFIDS \
	VPBROADCASTD (SI)(BX*4), Y7; \
	VPCMPEQD Packet_id(DI), Y7, Y7; \
	VBROADCASTSD (R11)(BX*8), Y6; \
	VMULPD avxConsts_g(R12), Y6, Y6

// FOLD adds accumulator A to the frame column at (DX) where mask M is set.
#define FOLD(col, A, M) \
	VMOVUPD col(DX), Y3; \
	VADDPD A, Y3, Y4; \
	VBLENDVPD M, Y4, Y3, Y3; \
	VMOVUPD Y3, col(DX)

// CLOSE adds the closing frame's column at (DX) to its parent's at (BX)
// where mask M is set.
#define CLOSE(col, M) \
	VMOVUPD col(BX), Y3; \
	VADDPD col(DX), Y3, Y4; \
	VBLENDVPD M, Y4, Y3, Y3; \
	VMOVUPD Y3, col(BX)

// func descendAVX2(w *Packet, c *Cols, k *avxConsts, own []int32, i, d, ownD, ownEnd int, alpha, a2, e2, exAdd float64) (ni, nd int)
TEXT ·descendAVX2(SB), NOSPLIT, $0-128
	MOVQ w+0(FP), DI
	MOVQ c+8(FP), R15
	MOVQ k+16(FP), R12
	MOVQ i+48(FP), R13
	MOVQ d+56(FP), R14
	IMUL3Q $frame__size, R14, DX
	ADDQ Packet_frames(DI), DX

next:
	// Close the frames that end at node i, down to depth ownD, each
	// lane's sum folded into the parent's; depth 0's end ends the walk.
	MOVLQSX frame_end(DX), AX
	CMPQ R13, AX
	JNE  visit
	CMPQ R14, ownD+64(FP)
	JLE  visit
	TESTQ R14, R14
	JZ   stop
	MOVQ DX, BX
	SUBQ $frame__size, BX
	ACTMASK(frame_mask(DX), Y1, Y2)
	CLOSE(frame_x, Y1)
	CLOSE(frame_x+32, Y2)
	CLOSE(frame_y, Y1)
	CLOSE(frame_y+32, Y2)
	CLOSE(frame_z, Y1)
	CLOSE(frame_z+32, Y2)
	MOVQ BX, DX
	DECQ R14
	JMP  next

visit:
	CMPQ R13, ownEnd+72(FP)
	JEQ  stop
	MOVQ Cols_Kind(R15), AX
	MOVBQZX (AX)(R13*1), AX
	CMPQ AX, $const_KindLeaf
	JEQ  leaf
	CMPQ AX, $const_KindClosed
	JEQ  mac
	CMPQ AX, $const_KindTop
	JLE  mac
	CMPQ AX, $const_KindBranchLeaf
	JGT  stop
	// A branch cell: the rank's own (an ordinal own does not hold is
	// Go's to report) is walked in Own, which Go switches to, and so is
	// any other once the defers are full; any other is a summary.
	MOVQ Cols_Lo(R15), BX
	MOVLQSX (BX)(R13*4), BX
	CMPQ BX, own_len+32(FP)
	JAE  stop
	MOVQ own_base+24(FP), CX
	MOVL (CX)(BX*4), CX
	TESTL CX, CX
	JGE  stop
	MOVQ (Packet_defers+8)(DI), CX
	CMPQ CX, (Packet_defers+16)(DI)
	JGE  stop
	CMPQ AX, $const_KindBranch
	JEQ  mac
	// Another rank's KindBranchLeaf: every lane defers it, untested.
	MOVQ Cols_Skip(R15), BX
	MOVLQSX (BX)(R13*4), BX
	MOVBQZX frame_mask(DX), AX
	TESTQ AX, AX
	JNZ  branchdefer
	MOVQ BX, R13
	JMP  next

mac:
	// A KindInternal, KindTop, KindClosed or remote KindBranch node: mac
	// for both halves, with the frame its rejecting lanes open at depth
	// d+1 or, at a branch, the deferral they make.
	LEAQ 2(R14), BX
	CMPQ BX, (Packet_frames+8)(DI)
	JGT  stop
	MOVQ AX, SI
	XORQ CX, CX
	CMPQ SI, $const_KindTop
	JEQ  macsummary
	CMPQ SI, $const_KindBranch
	JNE  macnode

macsummary:
	MOVQ exAdd+104(FP), CX

macnode:
	MOVQ Cols_ComX(R15), AX
	VBROADCASTSD (AX)(R13*8), Y8
	MOVQ Cols_ComY(R15), AX
	VBROADCASTSD (AX)(R13*8), Y9
	MOVQ Cols_ComZ(R15), AX
	VBROADCASTSD (AX)(R13*8), Y10
	MOVQ Cols_Mass(R15), AX
	VBROADCASTSD (AX)(R13*8), Y13
	VMULPD avxConsts_g(R12), Y13, Y13
	// s2 = macS2(side): side², or NaN outside [2⁻³⁰⁰, 2³⁰⁰].
	MOVQ Cols_Side(R15), BX
	VBROADCASTSD (BX)(R13*8), Y0
	VMULPD Y0, Y0, Y11
	VCMPPD $13, avxConsts_sideMin(R12), Y0, Y1
	VCMPPD $2, avxConsts_sideMax(R12), Y0, Y2
	VPAND Y2, Y1, Y1
	VMOVUPD avxConsts_nan(R12), Y2
	VBLENDVPD Y1, Y11, Y2, Y11
	VBROADCASTSD a2+88(FP), Y12
	ACTMASK(frame_mask(DX), Y14, Y15)
	MACHALF(0, Y14, R8, maclodecided, maclodone)
	MACHALF(32, Y15, R10, machidecided, machidone)
	SHLQ $4, R10
	ORQ  R10, R8
	// A summary (KindTop, KindBranch) is not charged; the others are, per
	// accepting lane.
	CMPQ SI, $const_KindTop
	JEQ  macrejected
	CMPQ SI, $const_KindBranch
	JEQ  macrejected
	POPCNTQ R8, AX
	MOVQ Packet_ld(DI), BX
	ADDQ AX, (BX)(R13*8)

macrejected:
	MOVBQZX frame_mask(DX), AX
	NOTQ R8
	ANDQ R8, AX
	MOVQ Cols_Skip(R15), BX
	MOVLQSX (BX)(R13*4), BX
	TESTQ AX, AX
	JNZ  macopen
	MOVQ BX, R13
	JMP  next

macopen:
	CMPQ SI, $const_KindClosed
	JEQ  closedrejected
	CMPQ SI, $const_KindBranch
	JEQ  branchdefer
	ADDQ $frame__size, DX
	INCQ R14
	MOVB AX, frame_mask(DX)
	MOVL BX, frame_end(DX)
	VXORPD Y0, Y0, Y0
	VMOVUPD Y0, frame_x(DX)
	VMOVUPD Y0, (frame_x+32)(DX)
	VMOVUPD Y0, frame_y(DX)
	VMOVUPD Y0, (frame_y+32)(DX)
	VMOVUPD Y0, frame_z(DX)
	VMOVUPD Y0, (frame_z+32)(DX)
	INCQ R13
	JMP  next

closedrejected:
	MOVQ $-1, R14
	JMP  stop

branchdefer:
	// The lanes in AX defer branch node i: each adds an explicit zero to
	// its sum (not a no-op under signed zeros) and the node joins the
	// defers with their mask; the walk goes on at Skip[i], in BX.
	LANEMASK(Y1, Y2)
	VXORPD Y8, Y8, Y8
	FOLD(frame_x, Y8, Y1)
	FOLD(frame_x+32, Y8, Y2)
	FOLD(frame_y, Y8, Y1)
	FOLD(frame_y+32, Y8, Y2)
	FOLD(frame_z, Y8, Y1)
	FOLD(frame_z+32, Y8, Y2)
	MOVQ (Packet_defers+8)(DI), CX
	IMUL3Q $deferral__size, CX, R8
	ADDQ Packet_defers(DI), R8
	MOVL R13, deferral_node(R8)
	MOVB AX, deferral_lanes(R8)
	INCQ CX
	MOVQ CX, (Packet_defers+8)(DI)
	MOVQ BX, R13
	JMP  next

leaf:
	// The leaf's particles [lo, hi), charged one visit per lane and
	// particle: BX runs from lo to hi.
	MOVQ Cols_Lo(R15), AX
	MOVLQSX (AX)(R13*4), BX
	MOVQ Cols_Hi(R15), AX
	MOVLQSX (AX)(R13*4), CX
	MOVBQZX frame_mask(DX), AX
	POPCNTQ AX, AX
	MOVQ CX, SI
	SUBQ BX, SI
	IMULQ SI, AX
	MOVQ Packet_ld(DI), R8
	ADDQ AX, (R8)(R13*8)
	MOVQ Cols_ID(R15), SI
	MOVQ Cols_PX(R15), R8
	MOVQ Cols_PY(R15), R9
	MOVQ Cols_PZ(R15), R10
	MOVQ Cols_PM(R15), R11
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VPXOR Y14, Y14, Y14
	VPXOR Y15, Y15, Y15
leafloop:
	CMPQ BX, CX
	JGE  leafdone
	LEAFIDS
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
	ACTMASK(frame_mask(DX), Y1, Y2)
	FOLD(frame_x, Y8, Y1)
	FOLD(frame_x+32, Y9, Y2)
	FOLD(frame_y, Y10, Y1)
	FOLD(frame_y+32, Y11, Y2)
	FOLD(frame_z, Y12, Y1)
	FOLD(frame_z+32, Y13, Y2)
	MOVQ Cols_Lo(R15), AX
	MOVLQSX (AX)(R13*4), AX
	SUBQ AX, CX
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
	MOVQ Cols_Skip(R15), AX
	MOVLQSX (AX)(R13*4), R13
	JMP  next

stop:
	MOVQ R13, ni+112(FP)
	MOVQ R14, nd+120(FP)
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
	// CPUID.1:ECX bit 23 POPCNT, bit 27 OSXSAVE, bit 28 AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18800000, CX
	CMPL CX, $0x18800000
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
