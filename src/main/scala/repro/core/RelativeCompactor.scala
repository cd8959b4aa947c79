package repro.core

import java.io.{EOFException, InvalidObjectException}
import java.nio.ByteBuffer
import scala.collection.immutable.ArraySeq

/** One level of the REQ sketch: the relative-compactor of Algorithm 1.
  *
  * The buffer has capacity `B = 2·k·numSections`. Its lowest-ranked half
  * (B/2 items) is never touched by a scheduled compaction; the upper half is
  * divided into `numSections` sections of `k` items, numbered from the
  * largest down. A scheduled compaction involves the top
  * `L = (z(C)+1)·k` items where `z(C)` is the number of trailing ones in the
  * binary representation of the schedule state `C` — the derandomized
  * exponential schedule that yields the paper's `R_h(y)/k` bound on
  * important steps (Lemma 5 / Fact 4). The leftmost section
  * (index `numSections`) is reserved for special compactions, which keep
  * only the `B/2` smallest items (Appendix C, eq. 15).
  *
  * Items above index `B` (possible transiently during merges) are always
  * included in a compaction (Algorithm 4). Both scheduled and special
  * compactions advance `C`; merge combines states with bitwise OR
  * (Fact 15/18).
  *
  * Items live in a growable `Array[Double]`: a sorted prefix followed by the
  * unsorted tail inserted since the last compaction. A compaction sorts only
  * the tail, by a kernel chosen from its shape (already sorted, a few sorted
  * runs, or random), and merges it into the prefix from the back, in the
  * total order of `java.util.Arrays.sort` (`java.lang.Double.compare`:
  * −0.0 < 0.0, NaN last), so the result equals a full sort of the buffer;
  * the survivors are then the sorted prefix. The coin that picks odd/even
  * survivors is supplied by the caller so the sketch owns a single RNG
  * stream.
  */
final class RelativeCompactor(var k: Int, var numSections: Int) {

  require(k >= 2 && k % 2 == 0, s"section size must be even >= 2, got $k")
  require(numSections >= 2, s"need >= 2 sections, got $numSections")

  /** Items: `buf(0 until sorted)` is sorted, `buf(sorted until len)` is not. */
  private var buf: Array[Double] = Array.emptyDoubleArray
  private var len: Int = 0
  private var sorted: Int = 0

  /** Compaction-schedule state C (Algorithm 1 line 3). */
  var state: Long = 0L

  /** Buffer capacity B = 2·k·numSections. */
  def capacity: Int = 2 * k * numSections

  def size: Int = len

  def isAtCapacity: Boolean = len >= capacity

  def insert(x: Double): Unit = {
    if (len == buf.length) grow(len + 1)
    buf(len) = x
    len += 1
  }

  def insertAll(xs: Array[Double]): Unit = {
    if (len + xs.length > buf.length) grow(len + xs.length)
    System.arraycopy(xs, 0, buf, len, xs.length)
    len += xs.length
  }

  /** Copy of the stored items (in no particular order). */
  def toArray: Array[Double] = java.util.Arrays.copyOf(buf, len)

  /** Immutable view of the stored items (in no particular order). */
  def items: IndexedSeq[Double] = ArraySeq.unsafeWrapArray(toArray)

  /** Number of stored items ≤ y. */
  def countAtMost(y: Double): Int = {
    var c = 0
    var i = 0
    while (i < len) { if (buf(i) <= y) c += 1; i += 1 }
    c
  }

  /** Number of trailing ones in the binary representation of `c`. */
  def trailingOnes(c: Long): Int = java.lang.Long.numberOfTrailingZeros(~c)

  /** Number of sections the next scheduled compaction involves:
    * z(C)+1 clamped to `numSections − 1` (the last section is special-only;
    * Observation 17 guarantees the clamp is never active in the streaming
    * setting and only defends against adversarial merge orders).
    */
  def nextCompactionSections: Int =
    math.min(trailingOnes(state) + 1, math.max(1, numSections - 1))

  /** Scheduled compaction (Algorithm 1 lines 6–13 / Algorithm 4 line 17).
    * Pre-condition: `size >= capacity`. Returns the promoted items (half of
    * the compacted range, odd or even indexed uniformly at random); the
    * lowest `B − L` items stay in the buffer.
    */
  def compact(rng: java.util.Random): Array[Double] = {
    require(isAtCapacity, s"compact() called on non-full buffer ($size < $capacity)")
    compactFrom(capacity - nextCompactionSections * k, rng)
  }

  /** Special compaction (Appendix C): keep only the B/2 smallest items,
    * compacting everything above. No-op (returns empty, state unchanged)
    * when at most B/2 items are stored.
    */
  def specialCompact(rng: java.util.Random): Array[Double] = {
    if (len <= capacity / 2) Array.emptyDoubleArray
    else compactFrom(capacity / 2, rng)
  }

  /** Compact the sorted suffix starting at 0-based index `from`; promote a
    * uniformly random odd/even half of it (an odd-sized range promotes
    * ⌊c/2⌋ or ⌈c/2⌉ items — unbiased, Algorithm 4 line 30).
    */
  private def compactFrom(from: Int, rng: java.util.Random): Array[Double] = {
    sortTail()
    val lo = math.max(0, math.min(from, len))
    val count = len - lo
    if (count <= 0) return Array.emptyDoubleArray
    val offset = if (rng.nextBoolean()) 1 else 0
    val out = new Array[Double]((count - offset + 1) / 2)
    var i = lo + offset
    var j = 0
    while (i < len) { out(j) = buf(i); i += 2; j += 1 }
    len = lo
    sorted = lo
    state += 1
    out
  }

  /** Sorts the tail and merges it into the sorted prefix from the back. */
  private def sortTail(): Unit = {
    val n = len - sorted
    if (n == 0) return
    val s = RelativeCompactor.scratch.get()
    s.reserve(n)
    val keys = sortedTailKeys(s, n)
    mergeTail(keys)
    sorted = len
  }

  /** The tail in `Double.compare` order, as keys (`RelativeCompactor.key`)
    * in one of the scratch arrays. One scan encodes the tail into `s.a` and
    * counts its runs: one run is already sorted, up to `MaxRuns` runs are
    * merged pairwise, more are radix-sorted. A short tail, or one holding a
    * NaN (whose key order differs from `Arrays.sort`'s), is sorted by
    * `Arrays.sort` instead.
    */
  private def sortedTailKeys(s: RelativeCompactor.Scratch, n: Int): Array[Long] = {
    import RelativeCompactor._
    val a = s.a
    var runs = 1
    var nan = false
    if (n >= SmallTail) {
      var prev = 0L // the least key
      s.runStarts(0) = 0
      var i = 0
      while (i < n) {
        val x = buf(sorted + i)
        if (x != x) nan = true
        val k = key(x)
        if (java.lang.Long.compareUnsigned(prev, k) > 0) {
          if (runs < MaxRuns) s.runStarts(runs) = i
          runs += 1
        }
        a(i) = k
        prev = k
        i += 1
      }
    }
    if (n < SmallTail || nan) {
      java.util.Arrays.sort(buf, sorted, len)
      var i = 0
      while (i < n) { a(i) = key(buf(sorted + i)); i += 1 }
      a
    } else if (runs == 1) a
    else if (runs <= MaxRuns) mergeRuns(s, n, runs)
    else radixSort(s, n)
  }

  /** Merges the tail from the back into the sorted prefix `buf(0 until
    * sorted)`, one item at a time; `t(0 until len - sorted)` holds the
    * tail's keys in order. Ties keep prefix items below tail items.
    */
  private def mergeTail(t: Array[Long]): Unit = {
    var i = sorted - 1
    var j = len - sorted - 1
    var w = len - 1
    while (j >= 0) {
      val x = RelativeCompactor.item(t(j))
      if (i >= 0 && java.lang.Double.compare(buf(i), x) > 0) { buf(w) = buf(i); i -= 1 }
      else { buf(w) = x; j -= 1 }
      w -= 1
    }
  }

  private def grow(minLength: Int): Unit =
    buf = java.util.Arrays.copyOf(buf, math.max(minLength, math.max(16, 2 * buf.length)))

  /** Merge-time parameter refresh (N-squaring): capacity grows, items and
    * state are retained.
    */
  def setParams(newK: Int, newNumSections: Int): Unit = {
    require(newK >= 2 && newK % 2 == 0 && newNumSections >= 2)
    k = newK
    numSections = newNumSections
  }

  /** Combine schedule states by bitwise OR (Algorithm 4 line 11). */
  def absorbState(otherState: Long): Unit = state |= otherState

  // ------------------------------------------------------------ level record
  //
  // The one on-wire definition of a level, used by `ReqSketch.toBytes`: `k`,
  // `size`, `numSections` (int32), `C` (int64), then `size` big-endian doubles
  // written as one sorted run.

  /** Bytes `writeRecord` writes. */
  def recordBytes: Int = RelativeCompactor.RecordHeaderBytes + 8 * len

  /** Writes the level record. The pending tail is sorted first: that is the
    * sort the next compaction would do, so the level's future is unchanged
    * and a reader never re-sorts what was sorted here.
    */
  def writeRecord(out: ByteBuffer): Unit = {
    sortTail()
    out.putInt(k).putInt(len).putInt(numSections).putLong(state)
    out.asDoubleBuffer().put(buf, 0, len)
    out.position(out.position() + 8 * len)
  }

  /** Replaces this level with the record read from `in`. Invalid parameters
    * or an item count outside `[0, B]` mean foreign bytes; they are rejected
    * before any item is allocated or read. The sorted prefix is re-derived by
    * one scan, never taken from the bytes, so an unsorted record still
    * compacts correctly.
    */
  private def readRecord(in: ByteBuffer): Unit = {
    RelativeCompactor.need(in, RelativeCompactor.RecordHeaderBytes)
    val (newK, size, sections, c) = (in.getInt(), in.getInt(), in.getInt(), in.getLong())
    if (newK < 2 || newK % 2 != 0 || sections < 2)
      throw new InvalidObjectException(s"invalid compactor parameters k=$newK numSections=$sections")
    val maxSize = math.min(2L * newK * sections, RelativeCompactor.MaxItems)
    if (size < 0 || size > maxSize)
      throw new InvalidObjectException(s"compactor item count $size outside [0, $maxSize]")
    RelativeCompactor.need(in, 8L * size)
    k = newK
    numSections = sections
    state = c
    buf = new Array[Double](size)
    in.asDoubleBuffer().get(buf)
    in.position(in.position() + 8 * size)
    len = size
    var i = math.min(1, size)
    while (i < size && java.lang.Double.compare(buf(i - 1), buf(i)) <= 0) i += 1
    sorted = i
  }
}

object RelativeCompactor {

  /** Tails shorter than this go to `Arrays.sort`. */
  private val SmallTail = 64

  /** The most runs a tail may have to be merged rather than radix-sorted. */
  private val MaxRuns = 8

  /** Order-preserving key: unsigned order of keys is `Double.compare` order
    * for every non-NaN double (−0.0 < 0.0). Bijective on bit patterns.
    */
  @inline private def key(x: Double): Long = {
    val bits = java.lang.Double.doubleToRawLongBits(x)
    bits ^ ((bits >> 63) | Long.MinValue)
  }

  /** Inverse of `key`. */
  @inline private def item(k: Long): Double =
    java.lang.Double.longBitsToDouble(k ^ ((~k >> 63) | Long.MinValue))

  /** Per-thread sort scratch, shared by every level of every sketch the
    * thread runs: two key arrays as long as the longest tail sorted so far,
    * the radix histograms and the run starts.
    */
  private final class Scratch {
    var a: Array[Long] = Array.emptyLongArray
    var b: Array[Long] = Array.emptyLongArray
    val counts = new Array[Int](8 * 256)
    val runStarts = new Array[Int](MaxRuns + 1)

    def reserve(n: Int): Unit = if (a.length < n) {
      val size = math.max(n, math.min(2L * a.length, Int.MaxValue - 8).toInt)
      a = new Array[Long](size)
      b = new Array[Long](size)
    }
  }

  private val scratch = ThreadLocal.withInitial[Scratch](() => new Scratch)

  /** Merges the `runs` sorted runs of `s.a(0 until n)` (starting at
    * `s.runStarts`) pairwise, bottom-up, between `s.a` and `s.b`. Returns
    * the array holding the result.
    */
  private def mergeRuns(s: Scratch, n: Int, runs: Int): Array[Long] = {
    val starts = s.runStarts
    var src = s.a
    var dst = s.b
    var r = runs
    while (r > 1) {
      starts(r) = n
      var q = 0
      while (q < r) {
        val lo = starts(q)
        if (q + 1 == r) System.arraycopy(src, lo, dst, lo, n - lo)
        else {
          val mid = starts(q + 1)
          val hi = starts(q + 2)
          var i = lo
          var j = mid
          var w = lo
          while (i < mid && j < hi) {
            if (java.lang.Long.compareUnsigned(src(i), src(j)) <= 0) { dst(w) = src(i); i += 1 }
            else { dst(w) = src(j); j += 1 }
            w += 1
          }
          System.arraycopy(src, i, dst, w, mid - i)
          System.arraycopy(src, j, dst, w + mid - i, hi - j)
        }
        starts(q / 2) = lo
        q += 2
      }
      r = (r + 1) / 2
      val t = src; src = dst; dst = t
    }
    src
  }

  /** LSD radix sort of the keys `s.a(0 until n)` on 8-bit digits, between
    * `s.a` and `s.b`: one pass builds all eight histograms, and a digit on
    * which every key agrees is skipped. Returns the array holding the result.
    */
  private def radixSort(s: Scratch, n: Int): Array[Long] = {
    val counts = s.counts
    java.util.Arrays.fill(counts, 0)
    var src = s.a
    var dst = s.b
    var i = 0
    while (i < n) {
      val k = src(i)
      var d = 0
      while (d < 8) {
        counts((d << 8) + ((k >>> (d << 3)).toInt & 0xff)) += 1
        d += 1
      }
      i += 1
    }
    var d = 0
    while (d < 8) {
      val base = d << 8
      val shift = d << 3
      if (counts(base + ((src(0) >>> shift).toInt & 0xff)) != n) {
        var sum = 0
        var b = 0
        while (b < 256) {
          val c = counts(base + b)
          counts(base + b) = sum
          sum += c
          b += 1
        }
        i = 0
        while (i < n) {
          val k = src(i)
          val slot = base + ((k >>> shift).toInt & 0xff)
          dst(counts(slot)) = k
          counts(slot) += 1
          i += 1
        }
        val t = src; src = dst; dst = t
      }
      d += 1
    }
    src
  }

  /** Bytes of a level record before its items. */
  val RecordHeaderBytes: Int = 20

  /** The most items a level record may hold: their bytes fit one array. */
  private val MaxItems: Int = Int.MaxValue / 8

  /** Reads one level record (see `writeRecord`). */
  def read(in: ByteBuffer): RelativeCompactor = {
    val c = new RelativeCompactor(2, 2)
    c.readRecord(in)
    c
  }

  /** Fails with an `EOFException` unless `in` holds `bytes` more bytes. */
  private[core] def need(in: ByteBuffer, bytes: Long): Unit =
    if (in.remaining < bytes)
      throw new EOFException(s"need $bytes more bytes, ${in.remaining} left")
}
