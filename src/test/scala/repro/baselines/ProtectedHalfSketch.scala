package repro.baselines

import repro.core.{LevelStack, RelativeCompactor, ReqSketch}

/** The "simple approach" the paper starts from and rejects (Section 1,
  * *Challenges and techniques*): each level is a buffer of fixed capacity B
  * whose smallest B/2 items are protected; when full, the top B/2 items are
  * always compacted (no schedule). This achieves relative error but needs
  * `B = Θ(1/ε²)` in the worst case — i.e. total space
  * `Θ(ε⁻²·log(ε²n))`, matching Zhang et al. [24] — because without the
  * derandomized schedule a compaction touching item y's boundary can remove
  * as little as one important item, so the number of error-contributing
  * compactions is only bounded by `R_h(y)` instead of `R_h(y)/k`.
  *
  * It is the REQ level stack (`LevelStack`) with the schedule removed: each
  * level is a `RelativeCompactor` of capacity B, and a full level always
  * runs its special compaction (Appendix C), which keeps exactly the B/2
  * smallest items. B must be a multiple of 4 (B = 2·k·sections with k = 2).
  *
  * Used as the space baseline in tables T1/T4: sized by its own worst-case
  * rule `B(ε) = 2·⌈1/ε²⌉` (rounded up to a multiple of 4) it keeps the ε
  * guarantee but pays quadratically in 1/ε, which is the paper's claimed
  * separation.
  */
final class ProtectedHalfSketch(val bufferCapacity: Int, seed: Long) extends LevelStack(seed) {

  require(bufferCapacity >= 8 && bufferCapacity % 4 == 0,
    s"capacity must be a multiple of 4, >= 8, got $bufferCapacity")

  levels += newLevel()

  /** Stream one item into the sketch. NaN is skipped, as in `ReqSketch`. */
  def update(x: Double): Unit = {
    if (x.isNaN) return
    count += 1
    levels(0).insert(x)
    if (levels(0).isAtCapacity) compressAll()
  }

  /** Merge `other` into the sketch with more levels and return it; both
    * inputs are consumed.
    */
  def merge(other: ProtectedHalfSketch): ProtectedHalfSketch = {
    require(!(other eq this), "cannot merge a sketch with itself")
    require(other.bufferCapacity == bufferCapacity,
      "can only merge sketches with the same capacity")
    val (tgt, src) = if (height >= other.height) (this, other) else (other, this)
    tgt.count += src.count
    tgt.absorb(src) // ORs level states too, which `specialCompact` never reads
    tgt.compressAll()
    tgt
  }

  protected def newLevel(): RelativeCompactor = new RelativeCompactor(2, bufferCapacity / 4)

  protected def compactionStart(level: RelativeCompactor): Int = level.capacity / 2

  /** The baseline draws its coins from its own `java.util.Random`, seeded
    * with the scrambled seed (entropy for 0), one boolean per non-empty
    * compaction, which keeps its pinned states.
    */
  private lazy val rng =
    if (seed != 0) new java.util.Random(ReqSketch.scramble(seed)) else new java.util.Random()

  override protected def coin(h: Int): Boolean = rng.nextBoolean()
}

object ProtectedHalfSketch {

  /** Worst-case sizing for target relative error ε: B = 2·⌈1/ε²⌉, rounded up
    * to a multiple of 4 and at least 8.
    */
  def capacityFor(eps: Double): Int = {
    val b = 2 * math.ceil(1.0 / (eps * eps)).toInt
    math.max(8, (b + 3) / 4 * 4)
  }

  def forEps(eps: Double, seed: Long = 0L): ProtectedHalfSketch =
    new ProtectedHalfSketch(capacityFor(eps), seed)

  def apply(capacity: Int, seed: Long = 0L): ProtectedHalfSketch =
    new ProtectedHalfSketch(capacity, seed)
}
