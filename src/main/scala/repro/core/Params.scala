package repro.core

/** Parameter schedules for the REQ sketch.
  *
  * The algorithm (Algorithms 1–4 of the paper) is driven by three quantities
  * that all derive from the current upper bound `N` on the input size:
  *
  *   - `k(N)`  — the section size (even, ≥ 2),
  *   - `numSections(N, k)` — number of k-sized sections in the compactable
  *     half of each buffer; the buffer capacity is `B = 2·k·numSections`,
  *   - `N₀` — the initial bound; whenever `n > N` the sketch performs the
  *     special compactions of Appendix C and squares `N` (Section 5).
  *
  * The paper proves its bounds for the `Theory` constants (eq. 15 and 25);
  * eq. (6) of the streaming analysis uses smaller constants, which the
  * `Practical` profile mirrors. `FixedK` pins the section size directly
  * (the knob exposed by production implementations such as Apache
  * DataSketches' ReqSketch) — useful for equal-space baseline comparisons.
  *
  * All profiles share the shape `numSections = ceil(log2(N/k)) + 1`, where
  * the extra (leftmost) section participates only in special compactions
  * (eq. 15 and the discussion below Observation 17).
  */
sealed trait ParamProfile extends Serializable {

  /** Initial upper bound N₀ on the input size. */
  def initialBound(eps: Double, delta: Double): Long

  /** Section size k for bound `nBound`; always even and ≥ 2. */
  def sectionSize(nBound: Long, eps: Double, delta: Double): Int

  /** Sections per buffer for bound `nBound` and section size `k`; ≥ 2. */
  def numSections(nBound: Long, k: Int): Int =
    math.max(2, ceilLog2(math.max(2.0, nBound.toDouble / k)) + 1)

  protected final def ceilLog2(x: Double): Int =
    math.ceil(math.log(x) / math.log(2.0)).toInt

  protected final def log2(x: Double): Double = math.log(x) / math.log(2.0)

  /** Round up to the next even integer, with a floor of 2. */
  protected final def even(x: Double): Int = {
    val c = math.max(1, math.ceil(x).toInt)
    if (c % 2 == 0) c else c + 1
  }
}

/** Constants of the mergeability analysis: eq. (25) k̂ = ε⁻¹·√ln(1/δ),
  * N₀ = ⌈2⁸·k̂⌉ and eq. (15) k(N) = 2⁵·⌈k̂/√log₂(N/k̂)⌉.
  */
case object Theory extends ParamProfile {
  private def kHat(eps: Double, delta: Double): Double =
    math.sqrt(math.log(1.0 / delta)) / eps

  override def initialBound(eps: Double, delta: Double): Long =
    math.max(64L, math.ceil(256.0 * kHat(eps, delta)).toLong)

  override def sectionSize(nBound: Long, eps: Double, delta: Double): Int = {
    val kh = kHat(eps, delta)
    val denom = math.sqrt(math.max(1.0, log2(math.max(2.0, nBound / kh))))
    32 * math.max(1, math.ceil(kh / denom).toInt)
  }
}

/** Constants of the streaming analysis, eq. (6): k is
  * ⌈(4/ε)·√(ln(1/δ)/log₂(εN))⌉ rounded up to even (at least 2), about
  * half of 2·⌈·⌉ (DESIGN.md, Parameter profiles), with the Appendix-C
  * N-squaring machinery layered on top (footnote 7's "recompute parameters
  * in place").
  */
case object Practical extends ParamProfile {
  override def initialBound(eps: Double, delta: Double): Long = {
    val kh = 4.0 * math.sqrt(math.log(1.0 / delta)) / eps
    math.max(64L, math.ceil(8.0 * kh).toLong)
  }

  override def sectionSize(nBound: Long, eps: Double, delta: Double): Int = {
    val num = (4.0 / eps) * math.sqrt(
      math.log(1.0 / delta) / math.max(1.0, log2(math.max(2.0, eps * nBound))))
    even(num)
  }
}

/** Pin the section size directly (production-style knob); buffers still grow
  * their section count with N so the relative-error shape is preserved.
  */
final case class FixedK(k: Int) extends ParamProfile {
  require(k >= 2 && k % 2 == 0, s"k must be even and >= 2, got $k")

  override def initialBound(eps: Double, delta: Double): Long =
    math.max(64L, 4L * k)

  override def sectionSize(nBound: Long, eps: Double, delta: Double): Int = k
}
