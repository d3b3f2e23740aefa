//! Bitwise comparators against the serial in-process reference, and the
//! self-tests proving each one catches a one-bit difference.
//!
//! Every workload compares its outputs through these functions, and every
//! run self-tests the comparators it used on a real reference: a
//! comparator that cannot fail proves nothing.

use crate::common::Outcome;
use astro_eval::json::Json;

/// True when both vectors have identical IEEE-754 bit patterns.
pub fn same_bits(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// True when a generated answer has the reference's raw text and
/// extracted prediction.
pub fn same_answer(
    got_raw: &str,
    got_pred: Option<usize>,
    want_raw: &str,
    want_pred: Option<usize>,
) -> bool {
    got_raw == want_raw && got_pred == want_pred
}

/// True when two loss curves have the same steps and loss bits.
pub fn same_losses(got: &[(u64, f32)], want: &[(u64, f32)]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
}

/// True when a `/v1/score` response body carries exactly the reference's
/// scores in its `score_bits` array.
pub fn score_response_matches(body: &str, want: &[f32]) -> bool {
    let Ok(v) = Json::parse(body) else {
        return false;
    };
    let Some(Json::Array(xs)) = v.get("score_bits") else {
        return false;
    };
    let got: Option<Vec<f32>> = xs
        .iter()
        .map(|x| match x {
            Json::Number(n) if n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(n) => {
                Some(f32::from_bits(*n as u32))
            }
            _ => None,
        })
        .collect();
    got.is_some_and(|got| same_bits(&got, want))
}

/// True when a `/v1/generate` response body carries the reference's raw
/// text and prediction.
pub fn generate_response_matches(body: &str, want_raw: &str, want_pred: Option<usize>) -> bool {
    let Ok(v) = Json::parse(body) else {
        return false;
    };
    let pred = match v.get("prediction") {
        Some(Json::Number(n)) => Some(*n as usize),
        _ => None,
    };
    v.get("raw")
        .and_then(Json::as_str)
        .is_some_and(|raw| same_answer(raw, pred, want_raw, want_pred))
}

/// `xs` with the lowest bit of its first element flipped.
fn flip_f32(xs: &[f32]) -> Vec<f32> {
    let mut v = xs.to_vec();
    if let Some(x) = v.first_mut() {
        *x = f32::from_bits(x.to_bits() ^ 1);
    }
    v
}

/// `s` with the lowest bit of its first character flipped.
fn flip_text(s: &str) -> String {
    let mut chars = s.chars();
    let first = chars
        .next()
        .map_or('x', |c| char::from_u32(c as u32 ^ 1).unwrap_or('x'));
    std::iter::once(first).chain(chars).collect()
}

/// A prediction that differs from `p`.
fn flip_pred(p: Option<usize>) -> Option<usize> {
    Some(p.map_or(0, |p| p ^ 1))
}

/// `body` with the lowest bit of its first `score_bits` entry flipped.
fn flip_score_bits(body: &str) -> Option<String> {
    let key = "\"score_bits\":[";
    let start = body.find(key)? + key.len();
    let len = body[start..].find(|c: char| !c.is_ascii_digit())?;
    let bits: u32 = body[start..start + len].parse().ok()?;
    Some(format!(
        "{}{}{}",
        &body[..start],
        bits ^ 1,
        &body[start + len..]
    ))
}

/// Record one self-test: the comparator must accept the reference and
/// reject every flipped copy.
fn expect_caught(out: &mut Outcome, what: &str, accepts: bool, rejects: bool) {
    if accepts && rejects {
        out.line(format!("self-test: {what}: a flipped bit is caught"));
    } else {
        out.fail(format!(
            "self-test: {what}: accepts the reference {accepts}, rejects a flipped bit {rejects}"
        ));
    }
}

/// Self-test [`same_bits`] on a real score (or parameter) vector.
pub fn self_test_scores(out: &mut Outcome, what: &str, want: &[f32]) {
    expect_caught(
        out,
        what,
        !want.is_empty() && same_bits(want, want),
        !same_bits(&flip_f32(want), want),
    );
}

/// Self-test [`same_answer`] on a real reference answer, flipping the
/// text and the prediction in turn.
pub fn self_test_answer(out: &mut Outcome, raw: &str, pred: Option<usize>) {
    expect_caught(
        out,
        "answer text and prediction",
        !raw.is_empty() && same_answer(raw, pred, raw, pred),
        !same_answer(raw, pred, &flip_text(raw), pred)
            && !same_answer(raw, pred, raw, flip_pred(pred)),
    );
}

/// Self-test [`same_losses`] on a real loss curve.
pub fn self_test_losses(out: &mut Outcome, want: &[(u64, f32)]) {
    let mut flipped = want.to_vec();
    if let Some((_, l)) = flipped.first_mut() {
        *l = f32::from_bits(l.to_bits() ^ 1);
    }
    expect_caught(
        out,
        "loss curve",
        !want.is_empty() && same_losses(want, want),
        !same_losses(&flipped, want),
    );
}

/// Self-test [`score_response_matches`] on a real response body that
/// matched its reference: one flipped `score_bits` entry in the body, and
/// one flipped reference bit, must each be caught.
pub fn self_test_score_response(out: &mut Outcome, body: &str, want: &[f32]) {
    expect_caught(
        out,
        "score response",
        score_response_matches(body, want),
        flip_score_bits(body).is_some_and(|b| !score_response_matches(&b, want))
            && !score_response_matches(body, &flip_f32(want)),
    );
}

/// Self-test [`generate_response_matches`] on a real response body that
/// matched its reference, flipping the reference text and prediction in
/// turn.
pub fn self_test_generate_response(
    out: &mut Outcome,
    body: &str,
    want_raw: &str,
    want_pred: Option<usize>,
) {
    expect_caught(
        out,
        "generate response",
        generate_response_matches(body, want_raw, want_pred),
        !generate_response_matches(body, &flip_text(want_raw), want_pred)
            && !generate_response_matches(body, want_raw, flip_pred(want_pred)),
    );
}
