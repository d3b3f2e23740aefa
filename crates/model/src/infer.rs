//! KV-cache incremental decoding.
//!
//! [`InferenceSession`] feeds one token at a time, caching per-layer keys
//! and values so each step costs `O(params + pos·d_model)` — the standard
//! autoregressive-serving structure. Used by both the full-instruct method
//! (free generation) and the next-token methods (single logit readout
//! after the prompt).

use crate::params::Params;
use crate::{ModelConfig, WeightPrecision, ROPE_THETA};
use astro_tensor::matmul::{dot, matmul_a_bt};
use astro_tensor::ops;
use astro_tensor::qmatmul::{
    quantize_row_q8, quantize_rows_q8, rmsnorm_quantize_row, swiglu_quantize_row,
};

/// Typed failure of an [`InferenceSession`] step.
///
/// Returned by [`InferenceSession::try_feed`] so callers that score many
/// independent prompts (the `astro-serve` evaluation engine) can surface a
/// full KV cache as a *per-question* error instead of aborting a whole
/// worker pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The KV cache is full: the session already holds `max_seq` tokens.
    CacheFull {
        /// Position the rejected token would have occupied.
        pos: usize,
        /// The session's capacity (`ModelConfig::max_seq`).
        max_seq: usize,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::CacheFull { pos, max_seq } => {
                write!(f, "KV cache full: position {pos} reached max_seq {max_seq}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Incremental decoding state for one sequence.
///
/// `Clone` forks the session: both copies share the consumed prefix and
/// can continue independently — used by the evaluation code to score
/// several answer continuations against one prompt without re-encoding
/// it.
#[derive(Clone)]
pub struct InferenceSession {
    cfg: ModelConfig,
    pos: usize,
    /// Per-layer key cache `[max_seq, C]`.
    k_cache: Vec<Vec<f32>>,
    /// Per-layer value cache `[max_seq, C]`.
    v_cache: Vec<Vec<f32>>,
    // step scratch
    x: Vec<f32>,
    ln: Vec<f32>,
    ln_inv: Vec<f32>,
    q: Vec<f32>,
    attn_out: Vec<f32>,
    proj: Vec<f32>,
    gate: Vec<f32>,
    up: Vec<f32>,
    act: Vec<f32>,
    scores: Vec<f32>,
    /// Logits after the last `feed`.
    logits: Vec<f32>,
    rope_cos: Vec<f32>,
    rope_sin: Vec<f32>,
    /// Int8 activation scratch (`d_model`), allocated only for
    /// [`WeightPrecision::Int8`] sessions.
    qx: Vec<i8>,
    /// Int8 FFN activation scratch (`d_ff`), ditto.
    qf: Vec<i8>,
}

impl InferenceSession {
    /// Allocate a session for a model configuration.
    pub fn new(cfg: ModelConfig) -> Self {
        cfg.assert_valid();
        let c = cfg.d_model;
        let f = cfg.d_ff;
        let half = cfg.head_dim() / 2;
        let mut rope_cos = vec![0.0f32; cfg.max_seq * half];
        let mut rope_sin = vec![0.0f32; cfg.max_seq * half];
        for pos in 0..cfg.max_seq {
            for i in 0..half {
                let freq = 1.0 / ROPE_THETA.powf(2.0 * i as f32 / cfg.head_dim() as f32);
                let angle = pos as f32 * freq;
                rope_cos[pos * half + i] = angle.cos();
                rope_sin[pos * half + i] = angle.sin();
            }
        }
        InferenceSession {
            cfg,
            pos: 0,
            k_cache: (0..cfg.n_layers).map(|_| vec![0.0; cfg.max_seq * c]).collect(),
            v_cache: (0..cfg.n_layers).map(|_| vec![0.0; cfg.max_seq * c]).collect(),
            x: vec![0.0; c],
            ln: vec![0.0; c],
            ln_inv: vec![0.0; 1],
            q: vec![0.0; c],
            attn_out: vec![0.0; c],
            proj: vec![0.0; c],
            gate: vec![0.0; f],
            up: vec![0.0; f],
            act: vec![0.0; f],
            scores: vec![0.0; cfg.max_seq],
            logits: vec![0.0; cfg.vocab_size],
            rope_cos,
            rope_sin,
            qx: match cfg.precision {
                WeightPrecision::F32 => Vec::new(),
                WeightPrecision::Int8 => vec![0; c],
            },
            qf: match cfg.precision {
                WeightPrecision::F32 => Vec::new(),
                WeightPrecision::Int8 => vec![0; f],
            },
        }
    }

    /// Current position (number of tokens consumed).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Remaining capacity before `max_seq` is reached.
    pub fn remaining(&self) -> usize {
        self.cfg.max_seq - self.pos
    }

    /// Clear the cache and restart at position 0.
    pub fn reset(&mut self) {
        self.pos = 0;
    }

    /// The configuration this session was allocated for.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Overwrite this session's state with `other`'s, reusing this
    /// session's allocations — the no-alloc fork used by pool workers that
    /// score thousands of prompts. Only the consumed KV rows and the last
    /// logits are copied; scratch buffers are overwritten by the next
    /// `feed` anyway. Both sessions must share a configuration.
    pub fn assign_from(&mut self, other: &InferenceSession) {
        assert!(
            self.cfg == other.cfg,
            "assign_from across configs: {:?} vs {:?}",
            self.cfg,
            other.cfg
        );
        self.pos = other.pos;
        let n = other.pos * self.cfg.d_model;
        for l in 0..self.cfg.n_layers {
            self.k_cache[l][..n].copy_from_slice(&other.k_cache[l][..n]);
            self.v_cache[l][..n].copy_from_slice(&other.v_cache[l][..n]);
        }
        self.logits.copy_from_slice(&other.logits);
    }

    /// Feed one token; returns the logits for the *next* token, or
    /// [`SessionError::CacheFull`] when the session already holds
    /// `max_seq` tokens. This is the fallible entry point batch engines
    /// use to turn an over-long prompt into a per-prompt error.
    pub fn try_feed(&mut self, p: &Params, token: u32) -> Result<&[f32], SessionError> {
        if self.pos >= self.cfg.max_seq {
            return Err(SessionError::CacheFull {
                pos: self.pos,
                max_seq: self.cfg.max_seq,
            });
        }
        Ok(self.feed_unchecked(p, token))
    }

    /// Feed one token; returns the logits for the *next* token.
    ///
    /// # Panics
    /// Panics when the cache is full (`position() == max_seq`); use
    /// [`Self::try_feed`] to handle that case as a typed error.
    pub fn feed(&mut self, p: &Params, token: u32) -> &[f32] {
        assert!(
            self.pos < self.cfg.max_seq,
            "KV cache full at {}",
            self.pos
        );
        self.feed_unchecked(p, token)
    }

    /// The step kernel; capacity has already been checked. Dispatches on
    /// the session's weight precision: [`WeightPrecision::Int8`] runs the
    /// quantized kernels when the params carry an int8 copy, and falls
    /// back to the f32 reference otherwise — an int8 session fed
    /// unquantized params is a benign precision downgrade, not an error.
    fn feed_unchecked(&mut self, p: &Params, token: u32) -> &[f32] {
        match (self.cfg.precision, &p.quant) {
            (WeightPrecision::Int8, Some(_)) => self.feed_step_int8(p, token),
            _ => self.feed_step_f32(p, token),
        }
    }

    /// The f32 step kernel — the bitwise-golden reference path.
    fn feed_step_f32(&mut self, p: &Params, token: u32) -> &[f32] {
        let c = self.cfg.d_model;
        let f = self.cfg.d_ff;
        let pos = self.pos;
        let embed = p.view(&p.layout.embed.clone());
        let tok = token as usize;
        assert!(tok < self.cfg.vocab_size, "token {tok} out of vocab");
        self.x.copy_from_slice(&embed[tok * c..(tok + 1) * c]);

        for l in 0..self.cfg.n_layers {
            let lay = p.layout.layers[l].clone();
            ops::rmsnorm_rows(
                &mut self.ln,
                &mut self.ln_inv,
                &self.x,
                p.view(&lay.attn_norm),
                1,
                c,
                1e-5,
            );
            // q into scratch; k,v straight into the cache row for `pos`.
            matmul_a_bt(&mut self.q, &self.ln, p.view(&lay.wq), 1, c, c);
            {
                let krow = &mut self.k_cache[l][pos * c..(pos + 1) * c];
                matmul_a_bt(krow, &self.ln, p.view(&lay.wk), 1, c, c);
            }
            {
                let vrow = &mut self.v_cache[l][pos * c..(pos + 1) * c];
                matmul_a_bt(vrow, &self.ln, p.view(&lay.wv), 1, c, c);
            }
            self.rope_attend_step(l, pos);
            // Output projection + residual.
            matmul_a_bt(&mut self.proj, &self.attn_out, p.view(&lay.wo), 1, c, c);
            for i in 0..c {
                self.x[i] += self.proj[i];
            }
            // FFN.
            ops::rmsnorm_rows(
                &mut self.ln,
                &mut self.ln_inv,
                &self.x,
                p.view(&lay.ffn_norm),
                1,
                c,
                1e-5,
            );
            matmul_a_bt(&mut self.gate, &self.ln, p.view(&lay.w_gate), 1, c, f);
            matmul_a_bt(&mut self.up, &self.ln, p.view(&lay.w_up), 1, c, f);
            for i in 0..f {
                self.act[i] = self.gate[i] * ops::sigmoid(self.gate[i]) * self.up[i];
            }
            matmul_a_bt(&mut self.proj, &self.act, p.view(&lay.w_down), 1, f, c);
            for i in 0..c {
                self.x[i] += self.proj[i];
            }
        }

        ops::rmsnorm_rows(
            &mut self.ln,
            &mut self.ln_inv,
            &self.x,
            p.view(&p.layout.final_norm.clone()),
            1,
            c,
            1e-5,
        );
        // Tied LM head: logits[v] = ln · embed_row(v).
        matmul_a_bt(&mut self.logits, &self.ln, embed, 1, c, self.cfg.vocab_size);
        self.pos += 1;
        &self.logits
    }

    /// The int8 step kernel: every linear layer runs through the
    /// per-output-channel int8 matmuls, with activations quantized at
    /// layer boundaries by the fused RMSNorm→quantize and
    /// SwiGLU→quantize epilogues. RoPE, attention, residual stream and
    /// the KV cache stay f32.
    fn feed_step_int8(&mut self, p: &Params, token: u32) -> &[f32] {
        let Some(qp) = p.quant.as_ref() else {
            return self.feed_step_f32(p, token);
        };
        let c = self.cfg.d_model;
        let pos = self.pos;
        let embed = p.view(&p.layout.embed.clone());
        let tok = token as usize;
        assert!(tok < self.cfg.vocab_size, "token {tok} out of vocab");
        self.x.copy_from_slice(&embed[tok * c..(tok + 1) * c]);

        for l in 0..self.cfg.n_layers {
            let lay = p.layout.layers[l].clone();
            let ql = &qp.layers[l];
            // Fused RMSNorm → int8: one pass emits the quantized
            // activation row and its scale.
            let x_scale = rmsnorm_quantize_row(&mut self.qx, &self.x, p.view(&lay.attn_norm), 1e-5);
            ql.wq.matvec(&mut self.q, &self.qx, x_scale);
            {
                let krow = &mut self.k_cache[l][pos * c..(pos + 1) * c];
                ql.wk.matvec(krow, &self.qx, x_scale);
            }
            {
                let vrow = &mut self.v_cache[l][pos * c..(pos + 1) * c];
                ql.wv.matvec(vrow, &self.qx, x_scale);
            }
            self.rope_attend_step(l, pos);
            // Output projection + residual; the attention output is
            // re-quantized at the boundary.
            let attn_scale = quantize_row_q8(&mut self.qx, &self.attn_out);
            ql.wo.matvec(&mut self.proj, &self.qx, attn_scale);
            for i in 0..c {
                self.x[i] += self.proj[i];
            }
            // FFN.
            let ffn_scale = rmsnorm_quantize_row(&mut self.qx, &self.x, p.view(&lay.ffn_norm), 1e-5);
            ql.w_gate.matvec(&mut self.gate, &self.qx, ffn_scale);
            ql.w_up.matvec(&mut self.up, &self.qx, ffn_scale);
            let act_scale = swiglu_quantize_row(&mut self.qf, &mut self.act, &self.gate, &self.up);
            ql.w_down.matvec(&mut self.proj, &self.qf, act_scale);
            for i in 0..c {
                self.x[i] += self.proj[i];
            }
        }

        let final_scale = rmsnorm_quantize_row(
            &mut self.qx,
            &self.x,
            p.view(&p.layout.final_norm.clone()),
            1e-5,
        );
        qp.lm_head.matvec(&mut self.logits, &self.qx, final_scale);
        self.pos += 1;
        &self.logits
    }

    /// RoPE on `self.q` and the freshly written K row, then causal
    /// attention over cached positions `0..=pos` into `self.attn_out`.
    /// Shared by the f32 and int8 step kernels — this part of the block
    /// stays f32 under both precisions.
    fn rope_attend_step(&mut self, l: usize, pos: usize) {
        let c = self.cfg.d_model;
        let h = self.cfg.n_heads;
        let hs = self.cfg.head_dim();
        let half = hs / 2;
        for hi in 0..h {
            let base = hi * hs;
            for i in 0..half {
                let co = self.rope_cos[pos * half + i];
                let si = self.rope_sin[pos * half + i];
                let rot = |buf: &mut [f32]| {
                    let x0 = buf[base + 2 * i];
                    let x1 = buf[base + 2 * i + 1];
                    buf[base + 2 * i] = x0 * co - x1 * si;
                    buf[base + 2 * i + 1] = x0 * si + x1 * co;
                };
                rot(&mut self.q);
                rot(&mut self.k_cache[l][pos * c..(pos + 1) * c]);
            }
        }
        let scale = 1.0 / (hs as f32).sqrt();
        for hi in 0..h {
            let qh = &self.q[hi * hs..(hi + 1) * hs];
            let n = pos + 1;
            for (j, s) in self.scores[..n].iter_mut().enumerate() {
                let kh = &self.k_cache[l][j * c + hi * hs..j * c + hi * hs + hs];
                *s = dot(qh, kh) * scale;
            }
            ops::softmax_rows(&mut self.scores[..n], 1, n);
            let out = &mut self.attn_out[hi * hs..(hi + 1) * hs];
            out.fill(0.0);
            for j in 0..n {
                let w = self.scores[j];
                let vh = &self.v_cache[l][j * c + hi * hs..j * c + hi * hs + hs];
                for (o, &vv) in out.iter_mut().zip(vh.iter()) {
                    *o += w * vv;
                }
            }
        }
    }

    /// Feed a whole prompt; returns the logits after its last token.
    pub fn feed_prompt(&mut self, p: &Params, tokens: &[u32]) -> Vec<f32> {
        assert!(!tokens.is_empty(), "empty prompt");
        for &t in tokens {
            self.feed(p, t);
        }
        self.logits.clone()
    }

    /// Logits from the most recent `feed`.
    pub fn last_logits(&self) -> &[f32] {
        &self.logits
    }

    /// Feed `m` tokens in one chunked-prefill step; returns the logits
    /// after *every* token as an `m × vocab` row-major matrix — the
    /// speculative verifier needs all of them, not just the last. The
    /// session advances by `m` positions exactly as `m` sequential
    /// [`Self::feed`] calls would, with bitwise-identical results: on
    /// the f32 path every output element is the same [`dot`] over the
    /// same operands regardless of row blocking, and on the int8 path
    /// the integer accumulation is exact, so blocking cannot change
    /// results either.
    pub fn try_feed_chunk(
        &mut self,
        p: &Params,
        tokens: &[u32],
    ) -> Result<Vec<f32>, SessionError> {
        assert!(!tokens.is_empty(), "empty chunk");
        if self.pos + tokens.len() > self.cfg.max_seq {
            return Err(SessionError::CacheFull {
                pos: self.pos + tokens.len() - 1,
                max_seq: self.cfg.max_seq,
            });
        }
        match (self.cfg.precision, &p.quant) {
            (WeightPrecision::Int8, Some(_)) => Ok(self.feed_chunk_int8(p, tokens)),
            _ => Ok(self.feed_chunk_f32(p, tokens)),
        }
    }

    /// Rewind the session to `pos` consumed tokens, restoring `logits`
    /// as the last-step logits — the speculative-decoding rollback. KV
    /// rows at positions `>= pos` become stale but are rewritten before
    /// any read: attention at position `q` only consults rows `0..=q`,
    /// and row `q` is written by the feed of token `q` itself.
    pub fn truncate(&mut self, pos: usize, logits: &[f32]) {
        assert!(
            pos <= self.pos,
            "truncate target {pos} beyond position {}",
            self.pos
        );
        assert_eq!(logits.len(), self.cfg.vocab_size, "logits length mismatch");
        self.pos = pos;
        self.logits.copy_from_slice(logits);
    }

    /// The f32 chunk kernel: per-row norms and element-wise stages, with
    /// all seven linear layers batched over the chunk via `matmul_a_bt`
    /// (K/V projections land directly in the cache rows for the chunk).
    fn feed_chunk_f32(&mut self, p: &Params, tokens: &[u32]) -> Vec<f32> {
        let c = self.cfg.d_model;
        let f = self.cfg.d_ff;
        let v = self.cfg.vocab_size;
        let m = tokens.len();
        let p0 = self.pos;
        let embed = p.view(&p.layout.embed.clone());
        let mut xs = vec![0.0f32; m * c];
        for (i, &t) in tokens.iter().enumerate() {
            let tok = t as usize;
            assert!(tok < v, "token {tok} out of vocab");
            xs[i * c..(i + 1) * c].copy_from_slice(&embed[tok * c..(tok + 1) * c]);
        }
        let mut ln_rows = vec![0.0f32; m * c];
        let mut ln_inv = vec![0.0f32; 1];
        let mut q_rows = vec![0.0f32; m * c];
        let mut attn_rows = vec![0.0f32; m * c];
        let mut proj_rows = vec![0.0f32; m * c];
        let mut gate_rows = vec![0.0f32; m * f];
        let mut up_rows = vec![0.0f32; m * f];
        let mut act_rows = vec![0.0f32; m * f];
        let mut logit_rows = vec![0.0f32; m * v];
        for l in 0..self.cfg.n_layers {
            let lay = p.layout.layers[l].clone();
            for i in 0..m {
                ops::rmsnorm_rows(
                    &mut ln_rows[i * c..(i + 1) * c],
                    &mut ln_inv,
                    &xs[i * c..(i + 1) * c],
                    p.view(&lay.attn_norm),
                    1,
                    c,
                    1e-5,
                );
            }
            matmul_a_bt(&mut q_rows, &ln_rows, p.view(&lay.wq), m, c, c);
            matmul_a_bt(
                &mut self.k_cache[l][p0 * c..(p0 + m) * c],
                &ln_rows,
                p.view(&lay.wk),
                m,
                c,
                c,
            );
            matmul_a_bt(
                &mut self.v_cache[l][p0 * c..(p0 + m) * c],
                &ln_rows,
                p.view(&lay.wv),
                m,
                c,
                c,
            );
            self.rope_attend_chunk(l, p0, m, &mut q_rows, &mut attn_rows);
            matmul_a_bt(&mut proj_rows, &attn_rows, p.view(&lay.wo), m, c, c);
            for (xv, &pv) in xs.iter_mut().zip(proj_rows.iter()) {
                *xv += pv;
            }
            for i in 0..m {
                ops::rmsnorm_rows(
                    &mut ln_rows[i * c..(i + 1) * c],
                    &mut ln_inv,
                    &xs[i * c..(i + 1) * c],
                    p.view(&lay.ffn_norm),
                    1,
                    c,
                    1e-5,
                );
            }
            matmul_a_bt(&mut gate_rows, &ln_rows, p.view(&lay.w_gate), m, c, f);
            matmul_a_bt(&mut up_rows, &ln_rows, p.view(&lay.w_up), m, c, f);
            for ((av, &gv), &uv) in
                act_rows.iter_mut().zip(gate_rows.iter()).zip(up_rows.iter())
            {
                *av = gv * ops::sigmoid(gv) * uv;
            }
            matmul_a_bt(&mut proj_rows, &act_rows, p.view(&lay.w_down), m, f, c);
            for (xv, &pv) in xs.iter_mut().zip(proj_rows.iter()) {
                *xv += pv;
            }
        }
        for i in 0..m {
            ops::rmsnorm_rows(
                &mut ln_rows[i * c..(i + 1) * c],
                &mut ln_inv,
                &xs[i * c..(i + 1) * c],
                p.view(&p.layout.final_norm.clone()),
                1,
                c,
                1e-5,
            );
        }
        matmul_a_bt(&mut logit_rows, &ln_rows, embed, m, c, v);
        self.logits.copy_from_slice(&logit_rows[(m - 1) * v..]);
        self.pos += m;
        logit_rows
    }

    /// The int8 chunk kernel: the same skeleton with every linear layer
    /// on the blocked int8 matmul and activations quantized row-by-row
    /// at the layer boundaries — the path that amortises weight traffic
    /// across a speculative verification chunk.
    fn feed_chunk_int8(&mut self, p: &Params, tokens: &[u32]) -> Vec<f32> {
        let Some(qp) = p.quant.as_ref() else {
            return self.feed_chunk_f32(p, tokens);
        };
        let c = self.cfg.d_model;
        let f = self.cfg.d_ff;
        let v = self.cfg.vocab_size;
        let m = tokens.len();
        let p0 = self.pos;
        let embed = p.view(&p.layout.embed.clone());
        let mut xs = vec![0.0f32; m * c];
        for (i, &t) in tokens.iter().enumerate() {
            let tok = t as usize;
            assert!(tok < v, "token {tok} out of vocab");
            xs[i * c..(i + 1) * c].copy_from_slice(&embed[tok * c..(tok + 1) * c]);
        }
        let mut qx_rows = vec![0i8; m * c];
        let mut x_scales = vec![0.0f32; m];
        let mut qf_rows = vec![0i8; m * f];
        let mut f_scales = vec![0.0f32; m];
        let mut q_rows = vec![0.0f32; m * c];
        let mut attn_rows = vec![0.0f32; m * c];
        let mut proj_rows = vec![0.0f32; m * c];
        let mut gate_rows = vec![0.0f32; m * f];
        let mut up_rows = vec![0.0f32; m * f];
        let mut act_rows = vec![0.0f32; m * f];
        let mut logit_rows = vec![0.0f32; m * v];
        for l in 0..self.cfg.n_layers {
            let lay = p.layout.layers[l].clone();
            let ql = &qp.layers[l];
            for i in 0..m {
                x_scales[i] = rmsnorm_quantize_row(
                    &mut qx_rows[i * c..(i + 1) * c],
                    &xs[i * c..(i + 1) * c],
                    p.view(&lay.attn_norm),
                    1e-5,
                );
            }
            ql.wq.matmul_chunk(&mut q_rows, &qx_rows, &x_scales, m);
            ql.wk
                .matmul_chunk(&mut self.k_cache[l][p0 * c..(p0 + m) * c], &qx_rows, &x_scales, m);
            ql.wv
                .matmul_chunk(&mut self.v_cache[l][p0 * c..(p0 + m) * c], &qx_rows, &x_scales, m);
            self.rope_attend_chunk(l, p0, m, &mut q_rows, &mut attn_rows);
            quantize_rows_q8(&mut qx_rows, &mut x_scales, &attn_rows, m, c);
            ql.wo.matmul_chunk(&mut proj_rows, &qx_rows, &x_scales, m);
            for (xv, &pv) in xs.iter_mut().zip(proj_rows.iter()) {
                *xv += pv;
            }
            for i in 0..m {
                x_scales[i] = rmsnorm_quantize_row(
                    &mut qx_rows[i * c..(i + 1) * c],
                    &xs[i * c..(i + 1) * c],
                    p.view(&lay.ffn_norm),
                    1e-5,
                );
            }
            ql.w_gate.matmul_chunk(&mut gate_rows, &qx_rows, &x_scales, m);
            ql.w_up.matmul_chunk(&mut up_rows, &qx_rows, &x_scales, m);
            for i in 0..m {
                f_scales[i] = swiglu_quantize_row(
                    &mut qf_rows[i * f..(i + 1) * f],
                    &mut act_rows[i * f..(i + 1) * f],
                    &gate_rows[i * f..(i + 1) * f],
                    &up_rows[i * f..(i + 1) * f],
                );
            }
            ql.w_down.matmul_chunk(&mut proj_rows, &qf_rows, &f_scales, m);
            for (xv, &pv) in xs.iter_mut().zip(proj_rows.iter()) {
                *xv += pv;
            }
        }
        for i in 0..m {
            x_scales[i] = rmsnorm_quantize_row(
                &mut qx_rows[i * c..(i + 1) * c],
                &xs[i * c..(i + 1) * c],
                p.view(&p.layout.final_norm.clone()),
                1e-5,
            );
        }
        qp.lm_head.matmul_chunk(&mut logit_rows, &qx_rows, &x_scales, m);
        self.logits.copy_from_slice(&logit_rows[(m - 1) * v..]);
        self.pos += m;
        logit_rows
    }

    /// Chunk-path RoPE + attention: rotate `m` query rows and their K
    /// cache rows, then run causal attention for each row in ascending
    /// position order — row `i` attends over `0..=p0+i`, which includes
    /// this chunk's earlier rows, already written and rotated.
    fn rope_attend_chunk(
        &mut self,
        l: usize,
        p0: usize,
        m: usize,
        q_rows: &mut [f32],
        attn_rows: &mut [f32],
    ) {
        let c = self.cfg.d_model;
        let h = self.cfg.n_heads;
        let hs = self.cfg.head_dim();
        let half = hs / 2;
        for i in 0..m {
            let pos = p0 + i;
            for hi in 0..h {
                let base = hi * hs;
                for ii in 0..half {
                    let co = self.rope_cos[pos * half + ii];
                    let si = self.rope_sin[pos * half + ii];
                    let rot = |buf: &mut [f32]| {
                        let x0 = buf[base + 2 * ii];
                        let x1 = buf[base + 2 * ii + 1];
                        buf[base + 2 * ii] = x0 * co - x1 * si;
                        buf[base + 2 * ii + 1] = x0 * si + x1 * co;
                    };
                    rot(&mut q_rows[i * c..(i + 1) * c]);
                    rot(&mut self.k_cache[l][pos * c..(pos + 1) * c]);
                }
            }
        }
        let scale = 1.0 / (hs as f32).sqrt();
        for i in 0..m {
            let pos = p0 + i;
            for hi in 0..h {
                let qh = &q_rows[i * c + hi * hs..i * c + hi * hs + hs];
                let n = pos + 1;
                for (j, s) in self.scores[..n].iter_mut().enumerate() {
                    let kh = &self.k_cache[l][j * c + hi * hs..j * c + hi * hs + hs];
                    *s = dot(qh, kh) * scale;
                }
                ops::softmax_rows(&mut self.scores[..n], 1, n);
                let out = &mut attn_rows[i * c + hi * hs..i * c + hi * hs + hs];
                out.fill(0.0);
                for j in 0..n {
                    let w = self.scores[j];
                    let vh = &self.v_cache[l][j * c + hi * hs..j * c + hi * hs + hs];
                    for (o, &vv) in out.iter_mut().zip(vh.iter()) {
                        *o += w * vv;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::TrainContext;
    use astro_prng::Rng;

    #[test]
    fn incremental_matches_batched_forward() {
        let cfg = ModelConfig::tiny(24);
        let p = Params::init(cfg, &mut Rng::seed_from(4));
        let tokens: Vec<u32> = vec![3, 1, 4, 1, 5, 9, 2, 6];
        // Batched forward.
        let mut ctx = TrainContext::new(cfg, 1, tokens.len());
        ctx.forward(&p, &tokens);
        // Incremental.
        let mut sess = InferenceSession::new(cfg);
        for (i, &t) in tokens.iter().enumerate() {
            let logits = sess.feed(&p, t).to_vec();
            let batch_row = &ctx.logits[i * 24..(i + 1) * 24];
            for (a, b) in logits.iter().zip(batch_row.iter()) {
                assert!(
                    (a - b).abs() < 1e-3,
                    "pos {i}: incremental {a} vs batched {b}"
                );
            }
        }
    }

    #[test]
    fn reset_restarts_cleanly() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(5));
        let mut sess = InferenceSession::new(cfg);
        let first = sess.feed(&p, 3).to_vec();
        sess.feed(&p, 7);
        sess.reset();
        assert_eq!(sess.position(), 0);
        let again = sess.feed(&p, 3).to_vec();
        for (a, b) in first.iter().zip(again.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn feed_prompt_returns_last_logits() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(6));
        let mut a = InferenceSession::new(cfg);
        let via_prompt = a.feed_prompt(&p, &[1, 2, 3]);
        let mut b = InferenceSession::new(cfg);
        b.feed(&p, 1);
        b.feed(&p, 2);
        let step = b.feed(&p, 3).to_vec();
        assert_eq!(via_prompt, step);
        assert_eq!(a.position(), 3);
    }

    #[test]
    #[should_panic]
    fn overflow_panics() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(7));
        let mut sess = InferenceSession::new(cfg);
        for _ in 0..=cfg.max_seq {
            sess.feed(&p, 1);
        }
    }

    #[test]
    fn try_feed_returns_cache_full_instead_of_panicking() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(7));
        let mut sess = InferenceSession::new(cfg);
        for _ in 0..cfg.max_seq {
            sess.try_feed(&p, 1).unwrap();
        }
        let err = sess.try_feed(&p, 1).unwrap_err();
        assert_eq!(
            err,
            SessionError::CacheFull {
                pos: cfg.max_seq,
                max_seq: cfg.max_seq
            }
        );
        // The session is still usable after the error (state unchanged).
        assert_eq!(sess.position(), cfg.max_seq);
        sess.reset();
        sess.try_feed(&p, 1).unwrap();
    }

    #[test]
    fn try_feed_matches_feed() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(9));
        let mut a = InferenceSession::new(cfg);
        let mut b = InferenceSession::new(cfg);
        for &t in &[3u32, 1, 4, 1, 5] {
            let la = a.feed(&p, t).to_vec();
            let lb = b.try_feed(&p, t).unwrap().to_vec();
            assert_eq!(la, lb);
        }
    }

    #[test]
    fn assign_from_forks_without_allocating_fresh_state() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(10));
        let mut src = InferenceSession::new(cfg);
        src.feed_prompt(&p, &[2, 7, 1]);
        // A fork via assign_from must continue exactly like a clone.
        let mut via_assign = InferenceSession::new(cfg);
        // Dirty the target first so stale state would be caught.
        via_assign.feed_prompt(&p, &[9, 9, 9, 9, 9]);
        via_assign.assign_from(&src);
        assert_eq!(via_assign.position(), 3);
        assert_eq!(via_assign.last_logits(), src.last_logits());
        let mut via_clone = src.clone();
        let a = via_assign.feed(&p, 5).to_vec();
        let b = via_clone.feed(&p, 5).to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn session_error_displays_positions() {
        let e = SessionError::CacheFull { pos: 32, max_seq: 32 };
        let s = format!("{e}");
        assert!(s.contains("32"), "{s}");
    }

    #[test]
    fn remaining_counts_down() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(8));
        let mut sess = InferenceSession::new(cfg);
        let r0 = sess.remaining();
        sess.feed(&p, 0);
        assert_eq!(sess.remaining(), r0 - 1);
    }

    #[test]
    fn chunk_feed_is_bitwise_equal_to_sequential_feeds_f32() {
        let cfg = ModelConfig::tiny(24);
        let p = Params::init(cfg, &mut Rng::seed_from(12));
        let prompt = [3u32, 1, 4];
        let chunk = [1u32, 5, 9, 2, 6];
        let mut seq = InferenceSession::new(cfg);
        seq.feed_prompt(&p, &prompt);
        let mut chk = seq.clone();
        let mut want = Vec::new();
        for &t in &chunk {
            want.extend_from_slice(seq.feed(&p, t));
        }
        let got = chk.try_feed_chunk(&p, &chunk).unwrap();
        assert_eq!(got, want, "chunk logits must be bitwise-equal");
        assert_eq!(chk.position(), seq.position());
        assert_eq!(chk.last_logits(), seq.last_logits());
        // The sessions stay interchangeable afterwards (same KV rows).
        assert_eq!(chk.feed(&p, 7).to_vec(), seq.feed(&p, 7).to_vec());
    }

    #[test]
    fn chunk_feed_is_bitwise_equal_to_sequential_feeds_int8() {
        let cfg = ModelConfig::tiny(24);
        let p = Params::init(cfg, &mut Rng::seed_from(13)).quantized();
        assert_eq!(p.cfg.precision, WeightPrecision::Int8);
        let mut seq = InferenceSession::new(p.cfg);
        seq.feed_prompt(&p, &[2, 7, 1]);
        let mut chk = seq.clone();
        let chunk = [8u32, 2, 8, 4];
        let mut want = Vec::new();
        for &t in &chunk {
            want.extend_from_slice(seq.feed(&p, t));
        }
        let got = chk.try_feed_chunk(&p, &chunk).unwrap();
        assert_eq!(got, want, "int8 chunk logits must be bitwise-equal");
        assert_eq!(chk.last_logits(), seq.last_logits());
    }

    #[test]
    fn truncate_rewinds_bitwise() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(14));
        let mut a = InferenceSession::new(cfg);
        a.feed_prompt(&p, &[2, 7, 1]);
        let pos = a.position();
        let logits = a.last_logits().to_vec();
        // Speculate down a wrong path, then roll back.
        a.feed(&p, 9);
        a.feed(&p, 9);
        a.truncate(pos, &logits);
        assert_eq!(a.position(), pos);
        assert_eq!(a.last_logits(), &logits[..]);
        // Continuing after the rollback matches a session that never
        // took the detour.
        let mut b = InferenceSession::new(cfg);
        b.feed_prompt(&p, &[2, 7, 1]);
        assert_eq!(a.feed(&p, 5).to_vec(), b.feed(&p, 5).to_vec());
        assert_eq!(a.feed(&p, 3).to_vec(), b.feed(&p, 3).to_vec());
    }

    #[test]
    fn chunk_overflow_is_a_typed_error() {
        let cfg = ModelConfig::tiny(16);
        let p = Params::init(cfg, &mut Rng::seed_from(15));
        let mut sess = InferenceSession::new(cfg);
        let chunk: Vec<u32> = vec![1; cfg.max_seq + 1];
        let err = sess.try_feed_chunk(&p, &chunk).unwrap_err();
        assert_eq!(
            err,
            SessionError::CacheFull {
                pos: cfg.max_seq,
                max_seq: cfg.max_seq
            }
        );
        // State untouched: a fitting chunk still works.
        assert_eq!(sess.position(), 0);
        sess.try_feed_chunk(&p, &[1, 2]).unwrap();
        assert_eq!(sess.position(), 2);
    }

    #[test]
    fn int8_step_tracks_f32_reference() {
        // Int8 accuracy is bounded by the differential suite; here we
        // sanity-check the quantized path stays close and finite.
        let cfg = ModelConfig::tiny(24);
        let p32 = Params::init(cfg, &mut Rng::seed_from(16));
        let p8 = p32.clone().quantized();
        let mut s32 = InferenceSession::new(cfg);
        let mut s8 = InferenceSession::new(p8.cfg);
        for &t in &[3u32, 1, 4, 1, 5] {
            let a = s32.feed(&p32, t).to_vec();
            let b = s8.feed(&p8, t).to_vec();
            for (x, y) in a.iter().zip(b.iter()) {
                assert!(y.is_finite(), "int8 logit not finite");
                let tol = 0.05f32.max(0.05 * x.abs());
                assert!((x - y).abs() < tol, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn int8_session_with_unquantized_params_falls_back_to_f32() {
        let cfg = ModelConfig::tiny(16).with_precision(WeightPrecision::Int8);
        let p = Params::init(ModelConfig::tiny(16), &mut Rng::seed_from(17));
        let mut s8 = InferenceSession::new(cfg);
        let mut s32 = InferenceSession::new(ModelConfig::tiny(16));
        let a = s8.feed(&p, 3).to_vec();
        let b = s32.feed(&p, 3).to_vec();
        assert_eq!(a, b, "missing quant copy must downgrade to the f32 path");
    }
}
