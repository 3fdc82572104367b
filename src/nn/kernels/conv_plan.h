// Position grid shared by the fused convolutions: the float kernels::conv
// (conv.cpp) and the int8 kernels::qconv (qgemm.cpp).  Internal to the
// kernel layer.
//
// Each sample's input is copied into "phase planes": for stride (sh, sw),
// phase (pi, pj) of channel ci is the zero-padded input sampled at rows
// a*sh + pi and columns b*sw + pj, an [hq, wq] plane over the padded
// extent (hq = ceil(Hp/sh), wq = ceil(Wp/sw)).  Output position (i, j) sits
// at grid index r = i*wq + j, and its tap (ci, ki, kj) reads plane
// (ci, ki%sh, kj%sw) at r + (ki/sh)*wq + kj/sw.  That is a fixed per-tap
// offset, so each tap of 16 consecutive grid positions (a tile) is one
// contiguous 16-float load.  At stride 1 the one phase is just the
// zero-padded input.  Grid columns j >= ow and positions past oh*wq are
// computed like any other lane and never stored.  The pad cells hold
// +0.0f, the same value im2col writes for an out-of-range tap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/kernels/kernels.h"

namespace rowpress::nn::kernels::detail {

constexpr int kTile = 16;  // output positions per tile

// Scratch bytes per chunk of samples (float phase planes for conv, packed
// activation codes for qconv): a chunk is filled, then consumed while it
// is still cache-resident, so scratch is bounded by a chunk, not the batch.
constexpr std::size_t kChunkBytes = 256 * 1024;

struct ConvPlan {
  ConvShape s;
  int oh = 0, ow = 0;
  int k = 0, k4 = 0;      // patch length, groups of 4 taps
  int ph_h = 1, ph_w = 1; // phases kept per axis (only those a tap reads)
  int hq = 0, wq = 0;     // phase-plane extent = position-grid width
  int tiles = 0;          // tiles per sample
  std::size_t plane = 0;         // hq * wq
  // One sample's scratch region: its phase planes plus the zeroed slack
  // its last tile's unstored lanes read, so no read reaches another
  // sample's planes (which another pool task may be writing).
  std::size_t sample_stride = 0;
  std::vector<std::int32_t> taps;       // [k4*4] sample-relative offsets
  std::vector<std::uint16_t> tile_mask; // [tiles] lanes that are outputs
  std::vector<std::int32_t> tile_out;   // [tiles] output index of 1st one

  // Re-plans for `shape`, reusing the vectors' capacity (the plan lives in
  // the per-thread scratch, so steady-state calls do not allocate).
  void reset(const ConvShape& shape);

  std::size_t tile_bytes() const { return static_cast<std::size_t>(k4) * 64; }
};

// Copies sample x[cin, h, w] into its phase planes at dst (sample_stride
// floats): zero the sample's region in one pass, then copy each source
// row's in-range run.
void build_planes(const ConvPlan& p, const float* x, float* dst);

}  // namespace rowpress::nn::kernels::detail
