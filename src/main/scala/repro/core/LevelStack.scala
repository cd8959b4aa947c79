package repro.core

import scala.collection.mutable.ArrayBuffer

/** The level stack shared by `ReqSketch` and the protected-half baseline:
  * relative-compactor levels, level h holding items of weight `2^h`, one
  * compaction-coin RNG and the count of items summarized. The paper's
  * "simple approach" (Section 1) is this stack with the schedule removed,
  * and Algorithms 2 and 4 run the same operations on it for both: the
  * weighted rank, the bottom-up compaction cascade and the level-by-level
  * merge.
  *
  * A subclass supplies `newLevel()` and where a full level's compaction
  * starts,
  * and appends its own first level once the parameters `newLevel()` reads
  * are set.
  *
  * @param seed RNG seed; 0 means "seed from entropy" (`ReqSketch.newRng`)
  */
abstract class LevelStack(val seed: Long) {

  protected[core] val levels = ArrayBuffer.empty[RelativeCompactor]

  /** Total number of input items summarized. */
  protected[core] var count: Long = 0L

  protected lazy val rng: java.util.Random = ReqSketch.newRng(seed)

  /** An empty level with the stack's current parameters. */
  protected def newLevel(): RelativeCompactor

  /** Index, in the sorted order of a level at or over capacity, where the
    * range its compaction removes starts.
    */
  protected def compactionStart(level: RelativeCompactor): Int

  /** Stream one item into the sketch. */
  def update(x: Double): Unit

  def updateAll(xs: IterableOnce[Double]): Unit = xs.iterator.foreach(update)

  /** Number of items summarized so far. */
  def n: Long = count

  /** Index of the highest level (H in the paper); levels are 0..height. */
  def height: Int = levels.size - 1

  /** Total number of universe items stored — the paper's space measure. */
  def itemsStored: Int = levels.iterator.map(_.size).sum

  /** Estimated rank R̂(y) = Σ_h 2^h · |{x ≤ y stored at level h}|; 0 on an
    * empty sketch.
    */
  def rank(y: Double): Long = {
    var r = 0L
    var h = 0
    while (h < levels.size) { r += (1L << h) * levels(h).countAtMost(y); h += 1 }
    r
  }

  /** Compacts level h from index `from` of its sorted order and cascades
    * the output, a sorted run of keys, into level h+1, creating it if
    * needed, by merging it into that level's sorted keys.
    */
  protected def promote(h: Int, from: Int): Unit =
    levels(h).compactInto(from, rng) {
      if (h + 1 == levels.size) levels += newLevel()
      levels(h + 1)
    }

  /** Single bottom-up pass of compactions on any level at or over capacity:
    * the update cascade (Algorithm 2) and Algorithm 4 lines 12–17. One
    * compaction always brings a level below capacity because it removes the
    * whole over-capacity suffix.
    */
  protected def compressAll(): Unit = {
    var h = 0
    while (h < levels.size) {
      while (levels(h).isAtCapacity) promote(h, compactionStart(levels(h)))
      h += 1
    }
  }

  /** Algorithm 4 lines 8–11: OR each of `src`'s level states into this
    * stack's level of the same height, then merge in its items as one
    * sorted run. `src` has no more levels than this stack.
    */
  protected def absorb(src: LevelStack): Unit = {
    var h = 0
    while (h < src.levels.size) {
      val from = src.levels(h)
      levels(h).absorbState(from.state)
      levels(h).mergeKeys(from.sortedKeys, from.size)
      h += 1
    }
  }
}
