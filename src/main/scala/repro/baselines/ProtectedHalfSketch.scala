package repro.baselines

import repro.core.{RelativeCompactor, ReqSketch}
import scala.collection.mutable.ArrayBuffer

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
  * It is the REQ level stack with the schedule removed: each level is a
  * `RelativeCompactor` of capacity B, and a full level always runs its
  * special compaction (Appendix C), which keeps exactly the B/2 smallest
  * items. B must be a multiple of 4 (B = 2·k·sections with k = 2).
  *
  * Used as the space baseline in tables T1/T4: sized by its own worst-case
  * rule `B(ε) = 2·⌈1/ε²⌉` (rounded up to a multiple of 4) it keeps the ε
  * guarantee but pays quadratically in 1/ε, which is the paper's claimed
  * separation.
  */
final class ProtectedHalfSketch(val bufferCapacity: Int, val seed: Long) {

  require(bufferCapacity >= 8 && bufferCapacity % 4 == 0,
    s"capacity must be a multiple of 4, >= 8, got $bufferCapacity")

  private val levels = ArrayBuffer(newLevel())
  private var count = 0L
  private lazy val rng = ReqSketch.newRng(seed)

  def n: Long = count
  def height: Int = levels.size - 1
  def itemsStored: Int = levels.iterator.map(_.size).sum

  def update(x: Double): Unit = {
    count += 1
    levels(0).insert(x)
    var h = 0
    while (h < levels.size && levels(h).isAtCapacity) {
      promote(levels(h).specialCompact(rng), h)
      h += 1
    }
  }

  def updateAll(xs: IterableOnce[Double]): Unit = xs.iterator.foreach(update)

  /** Merge `other` into the sketch with more levels and return it; both
    * inputs are consumed.
    */
  def merge(other: ProtectedHalfSketch): ProtectedHalfSketch = {
    require(!(other eq this), "cannot merge a sketch with itself")
    require(other.bufferCapacity == bufferCapacity,
      "can only merge sketches with the same capacity")
    val (tgt, src) = if (this.levels.size >= other.levels.size) (this, other) else (other, this)
    tgt.count += src.count
    var h = 0
    while (h < src.levels.size) {
      tgt.levels(h).insertAll(src.levels(h).toArray)
      h += 1
    }
    h = 0
    while (h < tgt.levels.size) {
      while (tgt.levels(h).isAtCapacity) tgt.promote(tgt.levels(h).specialCompact(tgt.rng), h)
      h += 1
    }
    tgt
  }

  /** Estimated rank R̂(y) = Σ_h 2^h · |{x ≤ y at level h}|. */
  def rank(y: Double): Long = {
    var r = 0L
    var h = 0
    while (h < levels.size) { r += (1L << h) * levels(h).countAtMost(y); h += 1 }
    r
  }

  private def newLevel() = new RelativeCompactor(2, bufferCapacity / 4)

  /** Cascade a compaction output into level h+1, creating it if needed. */
  private def promote(out: Array[Double], h: Int): Unit = {
    if (h + 1 == levels.size) levels += newLevel()
    levels(h + 1).insertAll(out)
  }
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
