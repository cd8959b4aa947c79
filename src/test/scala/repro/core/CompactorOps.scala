package repro.core

/** Item-level operations on one `RelativeCompactor` for its tests, each
  * run through the level stack's own path: compactions by `compactInto`,
  * sorted runs by `mergeKeys`, reads by `sortedKeys`, counts by
  * `LevelStack.rank` over a stack of this one level.
  */
object CompactorOps {

  implicit final class Ops(private val c: RelativeCompactor) extends AnyVal {

    /** Scheduled compaction (Algorithm 1 lines 6–13): the promoted items,
      * ascending; the lowest `B − L` items stay.
      */
    def compact(rng: java.util.Random): Array[Double] = compactFrom(c.scheduledStart, rng)

    /** Special compaction (Appendix C): keeps the B/2 smallest items; no-op,
      * returning no items, at or below B/2.
      */
    def specialCompact(rng: java.util.Random): Array[Double] = compactFrom(c.capacity / 2, rng)

    /** The stored items, as one sorted run. */
    def toArray: Array[Double] = items(c)

    def insertAll(xs: Array[Double]): Unit = xs.foreach(c.insert)

    /** Merges the ascending run `run(0 until n)` into the level. */
    def mergeRun(run: Array[Double], n: Int): Unit =
      c.mergeKeys(run.take(n).map(RelativeCompactor.key), n)

    /** Number of stored items ≤ y, as `rank` counts them at level 0. */
    def countAtMost(y: Double): Int = new OneLevel(c).rank(y).toInt

    private def compactFrom(from: Int, rng: java.util.Random): Array[Double] = {
      val above = new RelativeCompactor(2, 2)
      c.compactInto(from, rng.nextBoolean())(above)
      items(above)
    }
  }

  private def items(c: RelativeCompactor): Array[Double] =
    c.sortedKeys.take(c.size).map(RelativeCompactor.item)

  /** A stack whose only level is `c`. */
  private final class OneLevel(c: RelativeCompactor) extends LevelStack(1L) {
    levels += c
    def update(x: Double): Unit = throw new UnsupportedOperationException
    protected def newLevel(): RelativeCompactor = throw new UnsupportedOperationException
    protected def compactionStart(level: RelativeCompactor): Int = throw new UnsupportedOperationException
  }
}
