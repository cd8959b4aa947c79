package repro.core

import java.io.{EOFException, InvalidObjectException}
import java.nio.ByteBuffer

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
  * Items live in one growable `Array[Long]` of keys (`RelativeCompactor.key`),
  * whose signed order is the total order of `java.util.Arrays.sort` on
  * doubles (−0.0 < 0.0, NaN last): a sorted main run, a sorted short run,
  * then the unsorted tail inserted since the last compaction. `insert`
  * encodes; every merge, compaction and search compares keys as longs, and
  * only the level record decodes or encodes besides. A compaction sorts
  * only the tail (left as is when already ascending, bucket- or
  * radix-sorted otherwise) and merges it into the short run, then takes
  * its range from the tops of both runs in one descending walk, so its
  * output equals that of a full sort of the buffer. A run that is already
  * sorted (a compaction output, or a merged level) is merged in at once by
  * `mergeKeys`: into the short run, or into the main run when it is at
  * least half the main run's length. The short run folds into the main run
  * when it reaches half the main run's length, and whenever a reader needs
  * the level as one run. The coin that picks odd/even survivors is supplied
  * by the caller so the sketch owns a single RNG stream.
  */
final class RelativeCompactor(var k: Int, var numSections: Int) {
  import RelativeCompactor._

  require(validParams(k, numSections), paramsMessage(k, numSections))

  /** Keys: `buf(0 until main)` is the main run, `buf(main until sorted)`
    * the short run, `buf(sorted until len)` the unsorted tail.
    */
  private var buf: Array[Long] = Array.emptyLongArray
  private var len: Int = 0
  private var main: Int = 0
  private var sorted: Int = 0

  /** Compaction-schedule state C (Algorithm 1 line 3). */
  var state: Long = 0L

  /** Buffer capacity B = 2·k·numSections. */
  def capacity: Int = 2 * k * numSections

  def size: Int = len

  def isAtCapacity: Boolean = len >= capacity

  def insert(x: Double): Unit = {
    if (len == buf.length) grow(len + 1)
    buf(len) = key(x)
    len += 1
  }

  /** Merges the ascending keys `run(0 until n)` into the level. The pending
    * tail is sorted first, which is the sort the next compaction would do. A
    * run at least half the main run's length is merged into the main run,
    * any other into the short run.
    */
  private[core] def mergeKeys(run: Array[Long], n: Int): Unit = {
    sortTail()
    if (len + n > buf.length) grow(len + n)
    if (2 * n >= main) {
      System.arraycopy(buf, main, buf, main + n, len - main)
      backMerge(run, n, 0, main)
      main += n
    } else backMerge(run, n, main, len)
    len += n
    sorted = len
    foldIfLong()
  }

  /** The level as one ascending run of keys, `buf(0 until size)`. The tail
    * sort is the one the next compaction would do, and the fold leaves the
    * multiset as it was, so the level's future is unchanged. Read-only.
    */
  private[core] def sortedKeys: Array[Long] = { oneRun(); buf }

  /** Number of stored keys ≤ `ky`: a binary search over the level as one
    * run.
    */
  private[core] def countAtMost(ky: Long): Int = {
    oneRun()
    var lo = 0
    var hi = len
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (buf(mid) <= ky) lo = mid + 1 else hi = mid
    }
    lo
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

  /** Index, in the sorted order, where the next scheduled compaction's
    * range starts: `B − L`.
    */
  private[core] def scheduledStart: Int = capacity - nextCompactionSections * k

  /** Compacts from sorted index `from` as `compactFrom` does, and merges
    * the promoted keys into `above`, which is evaluated only when the
    * compaction promotes some. From `scheduledStart` this is the scheduled
    * compaction (Algorithm 1 lines 6–13, Algorithm 4 line 17), which keeps
    * the lowest `B − L` items; from `capacity / 2` it is the special
    * compaction (Appendix C), which keeps the B/2 smallest and is a no-op
    * at or below B/2 items.
    */
  private[core] def compactInto(from: Int, rng: java.util.Random)(above: => RelativeCompactor): Unit = {
    val s = scratch.get()
    val n = compactFrom(from, rng, s)
    if (n > 0) above.mergeKeys(s.out, n)
  }

  /** Compact the suffix of the sorted order starting at 0-based index
    * `from`; promote a uniformly random odd/even half of it (an odd-sized
    * range promotes ⌊c/2⌋ or ⌈c/2⌉ items — unbiased, Algorithm 4 line 30)
    * into `s.out`, and return how many. An empty range is a no-op that
    * leaves the state as it is. A range wholly in the main run is a strided
    * copy from it; any other is walked down from the tops of both runs,
    * equal keys taking the main run's below the short run's. The short run
    * then moves down onto what is left of the main run.
    */
  private def compactFrom(from: Int, rng: java.util.Random, s: Scratch): Int = {
    val lo = math.max(0, math.min(from, len))
    val count = len - lo
    if (count <= 0) return 0
    sortTail()
    val offset = if (rng.nextBoolean()) 1 else 0
    val n = (count - offset + 1) / 2
    s.reserveOut(n)
    val out = s.out
    var i = main - 1 // the main run's highest key left
    var j = len - 1  // the short run's highest key left
    if (count <= main && (j < main || buf(j) < buf(main - count))) {
      var r = main - count + offset
      var o = 0
      while (r < main) { out(o) = buf(r); r += 2; o += 1 }
      i = main - count - 1
    } else {
      var q = count - 1 - offset // rank in the range, above the coin's offset
      while (q >= -offset) {
        val x =
          if (i >= 0 && (j < main || buf(i) > buf(j))) { i -= 1; buf(i + 1) }
          else { j -= 1; buf(j + 1) }
        if ((q & 1) == 0) out(q >> 1) = x
        q -= 1
      }
    }
    System.arraycopy(buf, main, buf, i + 1, j - main + 1)
    len = lo
    main = i + 1
    sorted = lo
    state += 1
    n
  }

  /** Sorts the tail and merges it into the short run. */
  private def sortTail(): Unit = {
    val n = len - sorted
    if (n == 0) return
    val s = scratch.get()
    s.reserveKeys(n)
    System.arraycopy(buf, sorted, s.a, 0, n)
    backMerge(sortKeys(s, n), n, main, sorted)
    sorted = len
    foldIfLong()
  }

  /** Folds the short run into the main run once it is half as long. */
  private def foldIfLong(): Unit = if (2 * (sorted - main) >= main) fold()

  /** Merges the short run into the main run: the level's sorted keys are
    * then one run.
    */
  private def fold(): Unit = {
    val n = sorted - main
    if (n > 0 && main > 0) {
      val s = scratch.get()
      s.reserveRun(n)
      System.arraycopy(buf, main, s.run, 0, n)
      backMerge(s.run, n, 0, main)
    }
    main = sorted
  }

  /** Sorts the tail and folds: the level is one sorted run. */
  private def oneRun(): Unit = { sortTail(); fold() }

  /** Merges `run(0 until n)` from the back into the sorted run
    * `buf(lo until hi)`, which then fills `buf(lo until hi + n)`; that space
    * must be free and `run` must not be `buf`. One key at a time, ties
    * keeping level keys below run keys.
    */
  private def backMerge(run: Array[Long], n: Int, lo: Int, hi: Int): Unit = {
    var i = hi - 1
    var j = n - 1
    var w = hi + n - 1
    while (j >= 0) {
      val x = run(j)
      if (i >= lo && buf(i) > x) { buf(w) = buf(i); i -= 1 }
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
    require(validParams(newK, newNumSections), paramsMessage(newK, newNumSections))
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
  def recordBytes: Int = RecordHeaderBytes + 8 * len

  /** Writes the level record, decoding each key into the big-endian buffer.
    * The pending tail is sorted and the short run folded first: the tail
    * sort is the one the next compaction would do, so the level's future is
    * unchanged and a reader never re-sorts what was sorted here.
    */
  def writeRecord(out: ByteBuffer): Unit = {
    oneRun()
    out.putInt(k).putInt(len).putInt(numSections).putLong(state)
    var i = 0
    while (i < len) { out.putLong(bitsOf(buf(i))); i += 1 }
  }

  /** Replaces this level with the record read from `in`. Parameters the
    * constructor would reject or an item count outside `[0, B]` mean
    * foreign bytes; they are rejected before any item is allocated or read.
    * The sorted prefix is re-derived by the scan that encodes the items,
    * never taken from the bytes, so an unsorted record still compacts
    * correctly.
    */
  private def readRecord(in: ByteBuffer): Unit = {
    need(in, RecordHeaderBytes)
    val (newK, size, sections, c) = (in.getInt(), in.getInt(), in.getInt(), in.getLong())
    if (!validParams(newK, sections)) throw new InvalidObjectException(paramsMessage(newK, sections))
    val maxSize = math.min(2L * newK * sections, MaxItems)
    if (size < 0 || size > maxSize)
      throw new InvalidObjectException(s"compactor item count $size outside [0, $maxSize]")
    need(in, 8L * size)
    k = newK
    numSections = sections
    state = c
    buf = new Array[Long](size)
    in.asLongBuffer().get(buf)
    in.position(in.position() + 8 * size)
    len = size
    var prefix = size // the ascending prefix's length
    var i = 0
    while (i < size) {
      buf(i) = keyOf(buf(i))
      if (prefix == size && i > 0 && buf(i - 1) > buf(i)) prefix = i
      i += 1
    }
    main = prefix
    sorted = prefix
  }
}

object RelativeCompactor {

  /** Tails shorter than this go to `Arrays.sort`. */
  private val SmallTail = 64

  /** 2^52 − 1, the number of negative-NaN bit patterns. */
  private val NaNShift = (1L << 52) - 1

  /** Order-preserving key of the raw bits `b` of a double: the signed order
    * of keys is `Arrays.sort`'s order of doubles (−0.0 < 0.0), and every NaN
    * sorts above +∞. Flipping the low 63 bits of a negative pattern orders
    * the negatives; subtracting `NaNShift` then rotates the negative-NaN
    * patterns, the lowest after the flip, past `Long.MaxValue` to the top.
    * A bijection on all 2^64 bit patterns.
    */
  @inline private def keyOf(b: Long): Long = (b ^ ((b >> 63) & Long.MaxValue)) - NaNShift

  /** Inverse of `keyOf`: the raw bits of the double with key `k`. */
  @inline private def bitsOf(k: Long): Long = {
    val b = k + NaNShift
    b ^ ((b >> 63) & Long.MaxValue)
  }

  /** Key of the double `x` (`keyOf` its raw bits). */
  @inline private[core] def key(x: Double): Long = keyOf(java.lang.Double.doubleToRawLongBits(x))

  /** The double with key `k`. */
  @inline private[core] def item(k: Long): Double = java.lang.Double.longBitsToDouble(bitsOf(k))

  /** Whether a level may have section size `k` and `sections` sections: k
    * even and ≥ 2, at least 2 sections, and a capacity 2·k·sections that
    * fits an `Int`.
    */
  private def validParams(k: Int, sections: Int): Boolean =
    k >= 2 && k % 2 == 0 && sections >= 2 && 2L * k * sections <= Int.MaxValue

  private def paramsMessage(k: Int, sections: Int): String =
    s"invalid compactor parameters k=$k numSections=$sections: need k even >= 2, " +
      "numSections >= 2 and 2·k·numSections <= Int.MaxValue"

  /** Per-thread scratch, shared by every level of every sketch the thread
    * runs: the tail sort's two key arrays and radix histograms, the fold's
    * copy of a short run, and the keys a compaction promotes, which are
    * merged into the level above while the sort and fold arrays are in use.
    * Each array is as long as the longest use so far.
    */
  private final class Scratch {
    var a: Array[Long] = Array.emptyLongArray
    var b: Array[Long] = Array.emptyLongArray
    var run: Array[Long] = Array.emptyLongArray
    var out: Array[Long] = Array.emptyLongArray
    val counts = new Array[Int](8 * 256)

    /** Grows the sort's key arrays to hold at least `n` keys. */
    def reserveKeys(n: Int): Unit = if (a.length < n) {
      a = new Array[Long](grown(a.length, n))
      b = new Array[Long](a.length)
    }

    /** Grows the fold's array to hold at least `n` keys. */
    def reserveRun(n: Int): Unit = if (run.length < n) run = new Array[Long](grown(run.length, n))

    /** Grows the compaction output to hold at least `n` keys. */
    def reserveOut(n: Int): Unit = if (out.length < n) out = new Array[Long](grown(out.length, n))

    private def grown(length: Int, n: Int): Int =
      math.max(n, math.min(2L * length, Int.MaxValue - 8).toInt)
  }

  private val scratch = ThreadLocal.withInitial[Scratch](() => new Scratch)

  /** Tails up to this long try `bucketSort` before the radix sort. */
  private val BucketTail = 4096

  /** Sorts the keys `s.a(0 until n)` and returns the array holding them
    * sorted. A short tail goes to `Arrays.sort`; one scan of any other
    * finds whether it is already ascending (left as is) and the bits on
    * which some key differs from the first; an unsorted one goes to
    * `bucketSort` and, when that declines, to the radix sort.
    */
  private def sortKeys(s: Scratch, n: Int): Array[Long] = {
    val a = s.a
    if (n < SmallTail) { java.util.Arrays.sort(a, 0, n); return a }
    var ascending = true
    var diff = 0L // the bits on which some key differs from the first
    var i = 1
    while (i < n) {
      if (a(i - 1) > a(i)) ascending = false
      diff |= a(i) ^ a(0)
      i += 1
    }
    if (ascending) return a
    val keys = if (n <= BucketTail) bucketSort(s, n, diff) else null
    if (keys != null) keys else radixSort(s, n)
  }

  /** Sorts the keys `s.a(0 until n)` into `s.b` by one MSD pass on a digit
    * that starts at the highest bit on which they differ (`diff`), then an
    * insertion sort, which moves no key out of its bucket. Digits are taken
    * from `key ^ Long.MinValue`, whose unsigned order is the keys' signed
    * order. The digit has ⌈log2 n⌉ + 2 bits, from 8 to 11, so a spread-out
    * tail leaves about a quarter of a key per bucket. Returns `s.b`, or
    * null, having sorted nothing, as soon as a bucket holds more than
    * `24 + n/32` keys: a clustered tail is declined after about that many
    * keys, not a full pass.
    */
  private def bucketSort(s: Scratch, n: Int, diff: Long): Array[Long] = {
    val (src, dst, counts) = (s.a, s.b, s.counts)
    val bits = math.min(11, math.max(8, 34 - Integer.numberOfLeadingZeros(n - 1)))
    val mask = (1 << bits) - 1
    val shift = math.max(0, 64 - bits - java.lang.Long.numberOfLeadingZeros(diff))
    val limit = 24 + n / 32
    java.util.Arrays.fill(counts, 0, mask + 1, 0)
    var i = 0
    while (i < n) {
      val slot = ((src(i) ^ Long.MinValue) >>> shift).toInt & mask
      counts(slot) += 1
      if (counts(slot) > limit) return null
      i += 1
    }
    var sum = 0
    var b = 0
    while (b <= mask) {
      val c = counts(b)
      counts(b) = sum
      sum += c
      b += 1
    }
    i = 0
    while (i < n) {
      val k = src(i)
      val slot = ((k ^ Long.MinValue) >>> shift).toInt & mask
      dst(counts(slot)) = k
      counts(slot) += 1
      i += 1
    }
    i = 1
    while (i < n) {
      val k = dst(i)
      var j = i - 1
      while (j >= 0 && dst(j) > k) { dst(j + 1) = dst(j); j -= 1 }
      dst(j + 1) = k
      i += 1
    }
    dst
  }

  /** LSD radix sort of the keys `s.a(0 until n)` on the 8-bit digits of
    * `key ^ Long.MinValue`, between `s.a` and `s.b`: one pass builds all
    * eight histograms, and a digit on which every key agrees is skipped.
    * Returns the array holding the result.
    */
  private def radixSort(s: Scratch, n: Int): Array[Long] = {
    val counts = s.counts
    java.util.Arrays.fill(counts, 0)
    var src = s.a
    var dst = s.b
    var i = 0
    while (i < n) {
      val u = src(i) ^ Long.MinValue
      var d = 0
      while (d < 8) {
        counts((d << 8) + ((u >>> (d << 3)).toInt & 0xff)) += 1
        d += 1
      }
      i += 1
    }
    var d = 0
    while (d < 8) {
      val base = d << 8
      val shift = d << 3
      if (counts(base + (((src(0) ^ Long.MinValue) >>> shift).toInt & 0xff)) != n) {
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
          val slot = base + (((k ^ Long.MinValue) >>> shift).toInt & 0xff)
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
