#include "textflag.h"

// The AVX2 twins of runs.go's Go loops, each over the shortest of its
// slices. A YMM register holds two
// complex128 amplitudes (re, im, re, im), so a real coefficient broadcast
// to all four lanes scales both parts of both amplitudes the way the Go
// loop scales each part. Every loop takes four amplitudes a turn, then a
// YMM pair, then a lone amplitude in an XMM register, and loads a turn's
// sources before it stores, so a destination equal to its source, or below
// it, reads what the Go loop reads. Multiplies and adds stay separate
// instructions: an FMA would round once where the Go loop rounds twice.

// func mixRunAVX2(p0, p1 []complex128, ar, br, cr, dr float64)
TEXT ·mixRunAVX2(SB), NOSPLIT, $0-80
	MOVQ         p0_base+0(FP), DI
	MOVQ         p0_len+8(FP), CX
	MOVQ         p1_base+24(FP), SI
	MOVQ         p1_len+32(FP), AX
	CMPQ         AX, CX
	CMOVQLT      AX, CX
	VBROADCASTSD ar+48(FP), Y0
	VBROADCASTSD br+56(FP), Y1
	VBROADCASTSD cr+64(FP), Y2
	VBROADCASTSD dr+72(FP), Y3

mix4:
	CMPQ    CX, $4
	JB      mix2
	VMOVUPD (DI), Y4
	VMOVUPD 32(DI), Y5
	VMOVUPD (SI), Y6
	VMOVUPD 32(SI), Y7
	VMULPD  Y0, Y4, Y8
	VMULPD  Y1, Y6, Y9
	VADDPD  Y9, Y8, Y8
	VMULPD  Y2, Y4, Y10
	VMULPD  Y3, Y6, Y11
	VADDPD  Y11, Y10, Y10
	VMULPD  Y0, Y5, Y12
	VMULPD  Y1, Y7, Y13
	VADDPD  Y13, Y12, Y12
	VMULPD  Y2, Y5, Y14
	VMULPD  Y3, Y7, Y15
	VADDPD  Y15, Y14, Y14
	VMOVUPD Y8, (DI)
	VMOVUPD Y12, 32(DI)
	VMOVUPD Y10, (SI)
	VMOVUPD Y14, 32(SI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	SUBQ    $4, CX
	JMP     mix4

mix2:
	CMPQ    CX, $2
	JB      mix1
	VMOVUPD (DI), Y4
	VMOVUPD (SI), Y6
	VMULPD  Y0, Y4, Y8
	VMULPD  Y1, Y6, Y9
	VADDPD  Y9, Y8, Y8
	VMULPD  Y2, Y4, Y10
	VMULPD  Y3, Y6, Y11
	VADDPD  Y11, Y10, Y10
	VMOVUPD Y8, (DI)
	VMOVUPD Y10, (SI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $2, CX

mix1:
	TESTQ   CX, CX
	JZ      mixdone
	VMOVUPD (DI), X4
	VMOVUPD (SI), X6
	VMULPD  X0, X4, X8
	VMULPD  X1, X6, X9
	VADDPD  X9, X8, X8
	VMULPD  X2, X4, X10
	VMULPD  X3, X6, X11
	VADDPD  X11, X10, X10
	VMOVUPD X8, (DI)
	VMOVUPD X10, (SI)

mixdone:
	VZEROUPPER
	RET

// func scaleRunAVX2(dst, src []complex128, r float64)
TEXT ·scaleRunAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), AX
	CMPQ         AX, CX
	CMOVQLT      AX, CX
	VBROADCASTSD r+48(FP), Y0

scale4:
	CMPQ    CX, $4
	JB      scale2
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	SUBQ    $4, CX
	JMP     scale4

scale2:
	CMPQ    CX, $2
	JB      scale1
	VMOVUPD (SI), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $2, CX

scale1:
	TESTQ   CX, CX
	JZ      scaledone
	VMOVUPD (SI), X1
	VMULPD  X0, X1, X1
	VMOVUPD X1, (DI)

scaledone:
	VZEROUPPER
	RET

// func splitRunAVX2(p0, p1, src []complex128, r0, r1 float64)
TEXT ·splitRunAVX2(SB), NOSPLIT, $0-88
	MOVQ         p0_base+0(FP), DI
	MOVQ         p1_base+24(FP), DX
	MOVQ         src_base+48(FP), SI
	MOVQ         src_len+56(FP), CX
	MOVQ         p0_len+8(FP), AX
	CMPQ         AX, CX
	CMOVQLT      AX, CX
	MOVQ         p1_len+32(FP), AX
	CMPQ         AX, CX
	CMOVQLT      AX, CX
	VBROADCASTSD r0+72(FP), Y0
	VBROADCASTSD r1+80(FP), Y1

split4:
	CMPQ    CX, $4
	JB      split2
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	VMULPD  Y1, Y2, Y4
	VMULPD  Y1, Y3, Y5
	VMULPD  Y0, Y2, Y6
	VMULPD  Y0, Y3, Y7
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, DX
	ADDQ    $64, SI
	SUBQ    $4, CX
	JMP     split4

split2:
	CMPQ    CX, $2
	JB      split1
	VMOVUPD (SI), Y2
	VMULPD  Y1, Y2, Y4
	VMULPD  Y0, Y2, Y6
	VMOVUPD Y4, (DX)
	VMOVUPD Y6, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	ADDQ    $32, SI
	SUBQ    $2, CX

split1:
	TESTQ   CX, CX
	JZ      splitdone
	VMOVUPD (SI), X2
	VMULPD  X1, X2, X4
	VMULPD  X0, X2, X6
	VMOVUPD X4, (DX)
	VMOVUPD X6, (DI)

splitdone:
	VZEROUPPER
	RET

// func swapRunAVX2(p0, p1 []complex128)
TEXT ·swapRunAVX2(SB), NOSPLIT, $0-48
	MOVQ    p0_base+0(FP), DI
	MOVQ    p0_len+8(FP), CX
	MOVQ    p1_base+24(FP), SI
	MOVQ    p1_len+32(FP), AX
	CMPQ    AX, CX
	CMOVQLT AX, CX

swap4:
	CMPQ    CX, $4
	JB      swap2
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	SUBQ    $4, CX
	JMP     swap4

swap2:
	CMPQ    CX, $2
	JB      swap1
	VMOVUPD (DI), Y0
	VMOVUPD (SI), Y2
	VMOVUPD Y2, (DI)
	VMOVUPD Y0, (SI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $2, CX

swap1:
	TESTQ   CX, CX
	JZ      swapdone
	VMOVUPD (DI), X0
	VMOVUPD (SI), X2
	VMOVUPD X2, (DI)
	VMOVUPD X0, (SI)

swapdone:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
