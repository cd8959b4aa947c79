package repro.core

import org.scalatest.funsuite.AnyFunSuite
import CompactorOps._

/** Invariants of a single relative-compactor (Algorithm 1), driven through
  * the level stack's own compaction, merge and count (`CompactorOps`).
  */
class RelativeCompactorSpec extends AnyFunSuite {

  private def rng(seed: Long) = new java.util.Random(seed)

  private def fullCompactor(k: Int = 4, sections: Int = 4, seed: Long = 1):
      (RelativeCompactor, Array[Double]) = {
    val c = new RelativeCompactor(k, sections)
    val r = rng(seed)
    val xs = Array.fill(c.capacity)(r.nextDouble())
    xs.foreach(c.insert)
    (c, xs)
  }

  test("capacity is 2·k·numSections") {
    assert(new RelativeCompactor(4, 5).capacity == 40)
    assert(new RelativeCompactor(2, 2).capacity == 8)
    assert(new RelativeCompactor(16, 10).capacity == 320)
  }

  test("constructor rejects odd k") {
    intercept[IllegalArgumentException](new RelativeCompactor(3, 4))
  }

  test("constructor rejects k < 2") {
    intercept[IllegalArgumentException](new RelativeCompactor(0, 4))
  }

  test("constructor rejects < 2 sections") {
    intercept[IllegalArgumentException](new RelativeCompactor(4, 1))
  }

  // 2·k·numSections overflowing an Int would make `capacity` negative, every
  // level at capacity and the first update's cascade endless.
  test("constructor and setParams reject a capacity above Int.MaxValue") {
    assert(new RelativeCompactor(1 << 28, 2).capacity == 1 << 30)
    intercept[IllegalArgumentException](new RelativeCompactor(1 << 29, 2))
    intercept[IllegalArgumentException](new RelativeCompactor(2, 1 << 30))
    intercept[IllegalArgumentException](ReqSketch(0.01, 0.05, FixedK(1 << 29), 7))
    intercept[IllegalArgumentException](new RelativeCompactor(4, 4).setParams(1 << 29, 2))
  }

  test("a level record whose capacity overflows an Int is rejected") {
    for ((k, sections) <- Seq((1 << 29, 2), (2, 1 << 30), (1 << 16, 1 << 15))) {
      val v1 = java.nio.ByteBuffer.allocate(20).putInt(k).putInt(0).putInt(sections).putLong(0L)
      intercept[java.io.InvalidObjectException](RelativeCompactor.readV1(v1.flip(), k, sections))
      val v2 = java.nio.ByteBuffer.allocate(12).putInt(0).putLong(0L)
      intercept[java.io.InvalidObjectException](RelativeCompactor.read(v2.flip(), k, sections))
    }
  }

  test("a level record round-trips keys from Long.MinValue to Long.MaxValue") {
    val runs = Seq(Array(Long.MinValue, -1L, 0L, 1L, Long.MaxValue), Array(Long.MinValue, Long.MaxValue),
      Array.fill(40)(7L), Array.tabulate(200)(i => (i - 100L) << 55), // gaps of 56 bits
      Array.tabulate(100)(i => (i - 50L) << 56), Array(42L))           // and of 57
    for (run <- runs) {
      val c = new RelativeCompactor(64, 8)
      c.mergeKeys(run, run.length)
      val record = java.nio.ByteBuffer.allocate(c.maxRecordBytes.toInt)
      c.writeRecord(record)
      val back = RelativeCompactor.read(record.flip(), 64, 8)
      assert(!record.hasRemaining && back.size == run.length)
      assert(back.sortedKeys.take(back.size).sameElements(run))
    }
  }

  // A gap's loads reach up to 9 bytes past its first byte, so the block that
  // ends at the input's limit is read from a padded copy; a slice of a larger
  // array has bytes past its limit that must change nothing.
  for (w <- Seq(1, 8, 55, 56, 57, 63, 64))
    test(s"a record whose last block, of width $w, ends at the input's limit decodes, " +
        "also from a slice, and fails at every cut") {
      for (g <- Seq(1, 7, 8, 63, 64)) {
        // A full block of narrow gaps, then a last block of g gaps whose last
        // sets bit w − 1: they sum to less than 2^64, so keys from
        // Long.MinValue ascend.
        val r = rng(100L * w + g)
        val top = 1L << (w - 1)
        val gaps = Array.fill(63 + g)(r.nextLong() & (top - 1) >>> 7) :+
          (top | (r.nextLong() & (top - 1) & ~(top >>> 1)))
        val run = gaps.scanLeft(Long.MinValue)(_ + _)
        val c = new RelativeCompactor(64, 8)
        c.mergeKeys(run, run.length)
        val out = java.nio.ByteBuffer.allocate(c.maxRecordBytes.toInt)
        c.writeRecord(out)
        val record = java.util.Arrays.copyOf(out.array(), out.position())
        assert(record(record.length - 1 - (w * g + 7) / 8) == w, s"g = $g")
        val wider = Array.fill[Byte](7 + record.length + 16)(-1)
        System.arraycopy(record, 0, wider, 7, record.length)
        def slice(bytes: Int) = java.nio.ByteBuffer.wrap(wider, 7, bytes).slice()
        for (in <- Seq(java.nio.ByteBuffer.wrap(record), slice(record.length))) {
          val back = RelativeCompactor.read(in, 64, 8)
          assert(!in.hasRemaining && back.sortedKeys.take(back.size).sameElements(run), s"g = $g")
        }
        for (cut <- 0 until record.length) {
          intercept[java.io.IOException](RelativeCompactor.read(java.nio.ByteBuffer.wrap(record.take(cut)), 64, 8))
          intercept[java.io.IOException](RelativeCompactor.read(slice(cut), 64, 8))
        }
      }
    }

  test("insert grows size; isAtCapacity flips at B") {
    val c = new RelativeCompactor(2, 2)
    (1 to c.capacity - 1).foreach(i => c.insert(i.toDouble))
    assert(!c.isAtCapacity)
    c.insert(0.0)
    assert(c.isAtCapacity)
  }

  test("first compaction involves exactly one section (L = k)") {
    val (c, _) = fullCompactor()
    val out = c.compact(rng(1))
    assert(out.length == c.k / 2)
    assert(c.size == c.capacity - c.k)
  }

  test("compaction leaves the B - L smallest items in place") {
    val (c, xs) = fullCompactor(k = 4, sections = 4)
    val sorted = xs.sorted
    c.compact(rng(1))
    assert(c.toArray.sorted.toSeq == sorted.take(c.capacity - c.k).toSeq)
  }

  test("the protected half (B/2 smallest) is never compacted (scheduled)") {
    val (c, _) = fullCompactor(k = 4, sections = 4, seed = 3)
    val protectedItems = c.toArray.sorted.take(c.capacity / 2)
    // run many compactions, refilling with LARGER items each time: the
    // original smallest half must survive every scheduled compaction.
    val r = rng(9)
    (1 to 50).foreach { _ =>
      c.compact(r)
      while (!c.isAtCapacity) c.insert(2.0 + r.nextDouble())
    }
    assert(c.toArray.sorted.take(c.capacity / 2).toSeq == protectedItems.toSeq)
  }

  test("promoted items are alternating elements of the compacted suffix") {
    val c = new RelativeCompactor(4, 4)
    val xs = (1 to c.capacity).map(_.toDouble)
    xs.foreach(c.insert)
    val out = c.compact(rng(5))
    val l = c.k
    val suffix = xs.takeRight(l)
    val odd = suffix.zipWithIndex.collect { case (x, i) if i % 2 == 1 => x }
    val even = suffix.zipWithIndex.collect { case (x, i) if i % 2 == 0 => x }
    assert(out.toSeq == odd || out.toSeq == even)
  }

  test("both coin outcomes occur across seeds") {
    // java.util.Random's first boolean is biased for small sequential seeds;
    // the sketches scramble their seeds (ReqSketch.scramble) — do the same.
    val outs = (1 to 32).map { s =>
      val c = new RelativeCompactor(2, 2)
      (1 to c.capacity).foreach(i => c.insert(i.toDouble))
      c.compact(rng(ReqSketch.scramble(s))).toSeq
    }.toSet
    assert(outs.size == 2)
  }

  test("compaction preserves weight for even-sized ranges (2·|out| removed)") {
    for (seed <- 1 to 20) {
      val (c, _) = fullCompactor(k = 6, sections = 3, seed = seed)
      val before = c.size
      val out = c.compact(rng(seed))
      assert(before - c.size == 2 * out.length)
    }
  }

  test("state increments on each compaction") {
    val (c, _) = fullCompactor()
    val r = rng(2)
    assert(c.state == 0)
    c.compact(r)
    assert(c.state == 1)
    while (!c.isAtCapacity) c.insert(r.nextDouble())
    c.compact(r)
    assert(c.state == 2)
  }

  test("schedule drives section counts 1,2,1,3,1,2,1,... (state trailing ones)") {
    val c = new RelativeCompactor(2, 8)
    val r = rng(4)
    val observed = (0 until 8).map { _ =>
      while (!c.isAtCapacity) c.insert(r.nextDouble())
      val before = c.size
      c.compact(r)
      (before - c.size) / c.k // = L/k, the number of sections involved
    }
    assert(observed == Seq(1, 2, 1, 3, 1, 2, 1, 4))
  }

  test("special compaction keeps exactly B/2 items") {
    val (c, xs) = fullCompactor(k = 4, sections = 4, seed = 7)
    val out = c.specialCompact(rng(7))
    assert(c.size == c.capacity / 2)
    assert(c.toArray.sorted.toSeq == xs.sorted.take(c.capacity / 2).toSeq)
    assert(out.nonEmpty)
  }

  test("special compaction is a no-op at or below B/2 items") {
    val c = new RelativeCompactor(4, 4)
    (1 to c.capacity / 2).foreach(i => c.insert(i.toDouble))
    val st = c.state
    assert(c.specialCompact(rng(1)).isEmpty)
    assert(c.size == c.capacity / 2 && c.state == st)
  }

  // The promoted keys go through per-thread scratch that grows on demand; a
  // new thread's first compactions are the ones that grow it.
  test("compact and specialCompact return their items on a new thread") {
    var outs: scala.util.Try[(Array[Double], Array[Double])] = null
    val t = new Thread(() => outs = scala.util.Try {
      val c = new RelativeCompactor(4, 4) // B = 32
      (1 to c.capacity).foreach(i => c.insert(i.toDouble))
      val scheduled = c.compact(rng(1))
      (101 to 196).foreach(i => c.insert(i.toDouble))
      (scheduled, c.specialCompact(rng(2)))
    })
    t.start(); t.join()
    val (scheduled, special) = outs.get
    def halves(range: Seq[Double]): Set[Seq[Double]] =
      Set(range.indices.by(2).map(range), range.indices.drop(1).by(2).map(range))
    assert(halves((29 to 32).map(_.toDouble)).contains(scheduled.toSeq))
    assert(halves(((17 to 28) ++ (101 to 196)).map(_.toDouble)).contains(special.toSeq))
  }

  test("special compaction advances state when it compacts") {
    val (c, _) = fullCompactor()
    c.specialCompact(rng(1))
    assert(c.state == 1)
  }

  test("over-capacity items (merge transient) are always compacted") {
    val c = new RelativeCompactor(2, 2) // B = 8
    val xs = (1 to 20).map(_.toDouble)  // 2.5x over capacity
    xs.foreach(c.insert)
    c.compact(rng(1))
    // everything from sorted index B-L on is gone; size = B - L = 8 - 2 = 6
    assert(c.size == 6)
    assert(c.toArray.sorted.toSeq == xs.take(6))
  }

  test("countAtMost counts inclusively") {
    val c = new RelativeCompactor(2, 2)
    Seq(1.0, 2.0, 2.0, 3.0).foreach(c.insert)
    assert(c.countAtMost(0.5) == 0)
    assert(c.countAtMost(2.0) == 3)
    assert(c.countAtMost(9.0) == 4)
  }

  test("keys round-trip raw bits and sort as Arrays.sort; countAtMost ties -0.0, skips NaN") {
    val patterns = Seq(
      0L, Long.MinValue,                               // ±0.0
      1L, Long.MinValue | 1L,                          // ±MIN_VALUE
      0x0000000012345678L, 0x800fffffffffffffL,        // subnormals
      0x7fefffffffffffffL, 0xffefffffffffffffL,        // ±MaxValue
      0x7ff0000000000000L, 0xfff0000000000000L,        // ±Inf
      0xfff8000000001234L, 0x7ff0000000000001L, -1L)   // NaNs
    val xs = patterns.map(java.lang.Double.longBitsToDouble)
    for ((b, x) <- patterns.zip(xs)) {
      val k = RelativeCompactor.key(x)
      assert(java.lang.Double.doubleToRawLongBits(RelativeCompactor.item(k)) == b, b.toHexString)
      if (x.isNaN) assert(k > RelativeCompactor.key(Double.PositiveInfinity), b.toHexString)
      val c = new RelativeCompactor(2, 2)
      c.insert(x)
      assert(bits(c.toArray) == Seq(b) && bits(serialRoundTrip(c).toArray) == Seq(b), b.toHexString)
    }
    // One NaN pattern: Arrays.sort leaves NaNs with different payloads unordered.
    val pool = xs.filterNot(_.isNaN) ++ Seq(-2.5, -1.0, 1e-300, 0.5, 3.0, 1e300, Double.NaN)
    val shuffled = new scala.util.Random(5).shuffle(pool).toArray
    val byArraysSort = shuffled.clone()
    java.util.Arrays.sort(byArraysSort)
    assert(bits(shuffled.sortBy(RelativeCompactor.key)) == bits(byArraysSort))
    val c = new RelativeCompactor(4, 8)
    shuffled.foreach(c.insert)
    assert(c.countAtMost(-0.0) == c.countAtMost(0.0))
    assert(c.countAtMost(-0.0) == shuffled.count(_ <= 0.0))
    assert(c.countAtMost(Double.NaN) == 0)
  }

  test("setParams grows capacity keeping items and state") {
    val (c, xs) = fullCompactor(k = 4, sections = 4)
    c.compact(rng(1))
    val (items, st) = (c.toArray.sorted.toSeq, c.state)
    c.setParams(8, 6)
    assert(c.capacity == 96 && c.toArray.sorted.toSeq == items && c.state == st)
  }

  test("absorbState ORs the states") {
    val c = new RelativeCompactor(2, 4)
    c.state = 0x5L
    c.absorbState(0x3L)
    assert(c.state == 0x7L)
  }

  for (k <- Seq(2, 4, 8, 16); sections <- Seq(2, 4, 8)) {
    test(s"repeated fill/compact keeps size within capacity (k=$k, s=$sections)") {
      val c = new RelativeCompactor(k, sections)
      val r = rng(k * 31 + sections)
      (1 to 2000).foreach { _ =>
        c.insert(r.nextDouble())
        if (c.isAtCapacity) c.compact(r)
        assert(c.size < c.capacity)
      }
    }
  }

  // ------------------------------------------- sorted-run merge vs full sort
  //
  // Reference model: the multiset in a plain buffer, fully sorted on every
  // compaction, as `Arrays.sort` orders doubles (−0.0 < 0.0, NaN last). The
  // compactor under test keeps a main and a short sorted run, merges its
  // sorted tail into the short run, and merges a sorted run straight in
  // (`mergeRun`), to which the reference just appends the run; every
  // compaction output, the stored multiset and `countAtMost` must match it
  // bit for bit, through any mix of operations and serialization.

  private val pool = Array(Double.NegativeInfinity, -1.0, -0.0, 0.0, 0.5, 1.0,
    2.0, Double.PositiveInfinity, Double.NaN)

  private def bits(xs: Array[Double]): Seq[Long] =
    xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private def sortedBits(xs: Array[Double]): Seq[Long] = {
    val a = xs.clone(); java.util.Arrays.sort(a); bits(a)
  }

  private def serialRoundTrip(c: RelativeCompactor): RelativeCompactor = {
    val record = java.nio.ByteBuffer.allocate(c.maxRecordBytes.toInt)
    c.writeRecord(record)
    RelativeCompactor.read(record.flip(), c.k, c.numSections)
  }

  test("sorted-run compaction matches a full sort under random operation mixes") {
    for (trial <- 1 to 300) {
      val r = rng(trial)
      def draw(): Double = if (r.nextInt(4) == 0) r.nextDouble() else pool(r.nextInt(pool.length))
      var c = new RelativeCompactor(2 * (1 + r.nextInt(3)), 2 + r.nextInt(3))
      var ref = Array.emptyDoubleArray
      val (coins, refCoins) = (rng(1000L + trial), rng(1000L + trial))

      // Algorithm 1's compaction on a fully sorted copy of the reference.
      def refCompact(from: Int): Array[Double] = {
        val a = ref.clone(); java.util.Arrays.sort(a)
        val lo = math.max(0, math.min(from, a.length))
        if (a.length - lo <= 0) return Array.emptyDoubleArray
        val offset = if (refCoins.nextBoolean()) 1 else 0
        ref = a.take(lo)
        (lo + offset until a.length by 2).map(a(_)).toArray
      }

      for (step <- 1 to 400) {
        r.nextInt(12) match {
          case 0 | 1 | 2 | 3 =>
            val x = draw(); c.insert(x); ref :+= x
          case 4 | 5 =>
            val xs = Array.fill(r.nextInt(3 * c.k))(draw()); c.insertAll(xs); ref ++= xs
          case 6 | 7 if c.isAtCapacity =>
            val from = c.capacity - c.nextCompactionSections * c.k
            val st = c.state
            assert(bits(c.compact(coins)) == bits(refCompact(from)), s"trial $trial step $step")
            assert(c.state == st + 1)
          case 8 =>
            val (st, compacts) = (c.state, ref.length > c.capacity / 2)
            val expected = if (compacts) refCompact(c.capacity / 2) else Array.emptyDoubleArray
            assert(bits(c.specialCompact(coins)) == bits(expected), s"trial $trial step $step")
            assert(c.state == st + (if (compacts) 1 else 0))
          case 9 =>
            c.setParams(2 * (1 + r.nextInt(4)), 2 + r.nextInt(4))
          case 10 if c.size <= c.capacity =>
            val st = c.state
            c = serialRoundTrip(c)
            assert(c.state == st)
          case 11 =>
            val xs = Array.fill(r.nextInt(3 * c.k))(draw()); java.util.Arrays.sort(xs)
            val n = r.nextInt(xs.length + 1)
            c.mergeRun(xs, n); ref ++= xs.take(n)
          case _ =>
        }
        assert(c.size == ref.length)
        assert(sortedBits(c.toArray) == sortedBits(ref), s"trial $trial step $step")
        for (y <- pool :+ draw())
          assert(c.countAtMost(y) == ref.count(_ <= y), s"trial $trial step $step y=$y")
      }
    }
  }

  // Large sections make tails of hundreds of items, so compactions reach the
  // bucket sort (spread-out tails), the radix sort (tails it declines: many
  // equal or clustered keys), the back-merge into short and long runs and
  // the NaN fallback. A trial holds at most one NaN bit pattern (a third hold none):
  // `Arrays.sort` leaves NaNs with different payloads in no defined order
  // among themselves.
  test("sort kernels match a full sort bit for bit at large k") {
    val signedNaN = java.lang.Double.longBitsToDouble(0xfff8000000001234L)
    val extras = Array(java.lang.Double.MIN_VALUE, -java.lang.Double.MIN_VALUE,
      java.lang.Double.MIN_NORMAL / 3, -1e-310, Double.MinValue, Double.MaxValue)
    val ks = Array(32, 64, 128)
    for (trial <- 1 to 36) {
      val r = rng(7000L + trial)
      val runsOnly = trial % 2 == 0
      val nan = if (trial % 3 == 0) signedNaN else if (trial % 3 == 1) Double.NaN else 0.0
      val items = pool.filterNot(_.isNaN) ++ extras
      // A falling stream puts every new item below the whole sorted prefix.
      val falling = trial % 4 == 3
      var floor = 0.0
      def draw(): Double =
        if (falling) { floor -= r.nextDouble(); floor }
        else r.nextInt(256) match {
          case 0 => nan
          case d if d < 128 => r.nextGaussian() * math.pow(2, r.nextInt(64) - 32)
          case _ => items(r.nextInt(items.length))
        }
      var c = new RelativeCompactor(ks(trial % 3), 2 + r.nextInt(5))
      def batch(): Array[Double] = Array.fill(1 + r.nextInt(2 * c.k))(draw())
      var ref = Array.emptyDoubleArray
      val (coins, refCoins) = (rng(9000L + trial), rng(9000L + trial))

      def refCompact(from: Int): Array[Double] = {
        val a = ref.clone(); java.util.Arrays.sort(a)
        val lo = math.max(0, math.min(from, a.length))
        if (a.length - lo <= 0) return Array.emptyDoubleArray
        val offset = if (refCoins.nextBoolean()) 1 else 0
        ref = a.take(lo)
        (lo + offset until a.length by 2).map(a(_)).toArray
      }

      for (step <- 1 to 300) {
        r.nextInt(11) match {
          case 0 | 1 | 2 if !runsOnly =>
            val xs = batch()
            if (r.nextBoolean()) xs.foreach(c.insert) else c.insertAll(xs)
            ref ++= xs
          case 3 if !runsOnly =>
            val xs = batch().sorted(Ordering.Double.TotalOrdering.reverse)
            c.insertAll(xs); ref ++= xs
          case 0 | 1 | 2 | 3 | 4 =>
            val xs = batch(); java.util.Arrays.sort(xs)
            c.insertAll(xs); ref ++= xs
          case 5 | 6 if c.isAtCapacity =>
            val from = c.capacity - c.nextCompactionSections * c.k
            assert(bits(c.compact(coins)) == bits(refCompact(from)), s"trial $trial step $step")
          case 7 =>
            val expected =
              if (ref.length > c.capacity / 2) refCompact(c.capacity / 2) else Array.emptyDoubleArray
            assert(bits(c.specialCompact(coins)) == bits(expected), s"trial $trial step $step")
          case 8 =>
            c.setParams(ks(r.nextInt(3)), 2 + r.nextInt(5))
          case 9 if c.size <= c.capacity =>
            c = serialRoundTrip(c)
          case 10 =>
            val xs = batch(); java.util.Arrays.sort(xs)
            val n = r.nextInt(xs.length + 1)
            c.mergeRun(xs, n); ref ++= xs.take(n)
          case _ =>
        }
        assert(c.size == ref.length)
        assert(sortedBits(c.toArray) == sortedBits(ref), s"trial $trial step $step")
        for (y <- items.take(4) :+ draw())
          assert(c.countAtMost(y) == ref.count(_ <= y), s"trial $trial step $step y=$y")
      }
    }
  }

  // ingest-scale trials. Level 0 of the benchmark's sketch (ε = 0.01,
  // Practical, 2^22 items) has k = 164 and 19 sections. Small sorted runs
  // (compaction outputs promoted from below) arrive many times between
  // compactions, and now and then a run at least half the level's size (a
  // whole level absorbed by a merge). The stream's shape decides where new
  // items land against the stored ones: a rising stream puts them above it,
  // so compaction ranges reach into the newest items; a falling stream puts
  // them below, so ranges lie in the older items while the newer ones pile
  // up; a uniform stream spreads them, so ranges take from both; and a
  // duplicate-heavy stream (few distinct values, −0.0 and 0.0, ±∞ and one
  // NaN bit pattern) makes ties between old and new items. Queries,
  // `toArray` and a serialization round trip run between operations, rarely
  // enough that runs of updates build up between them.
  test("ingest-scale trials (k = 164, 19 sections) match a full sort") {
    val dups = Array(Double.NegativeInfinity, -1.0, -0.0, 0.0, 0.25, 1.0,
      Double.PositiveInfinity, Double.NaN)
    for (shape <- Seq("rising", "falling", "uniform", "duplicates"); seed <- 1 to 3) {
      val trial = s"$shape/$seed"
      val r = rng(11000L + 31 * seed + shape.hashCode)
      var (rise, fall) = (0.0, 0.0)
      def draw(): Double = shape match {
        case "rising"  => rise += r.nextDouble(); rise
        case "falling" => fall -= r.nextDouble(); fall
        case "uniform" => r.nextDouble()
        case _         => dups(r.nextInt(dups.length))
      }
      def run(n: Int): Array[Double] = { val xs = Array.fill(n)(draw()); java.util.Arrays.sort(xs); xs }
      var c = new RelativeCompactor(164, 19)
      val ref = scala.collection.mutable.ArrayBuffer.empty[Double]
      val (coins, refCoins) = (rng(12000L + seed), rng(12000L + seed))

      def refCompact(from: Int): Array[Double] = {
        val a = ref.toArray; java.util.Arrays.sort(a)
        val lo = math.max(0, math.min(from, a.length))
        if (a.length - lo <= 0) return Array.emptyDoubleArray
        val offset = if (refCoins.nextBoolean()) 1 else 0
        ref.clear(); ref ++= a.take(lo)
        (lo + offset until a.length by 2).map(a(_)).toArray
      }

      for (step <- 1 to 2400) {
        val at = s"trial $trial step $step"
        r.nextInt(16) match {
          case 0 | 1 | 2 =>
            val xs = Array.fill(1 + r.nextInt(c.k))(draw())
            if (r.nextBoolean()) xs.foreach(c.insert) else c.insertAll(xs)
            ref ++= xs
          case 3 | 4 | 5 | 6 | 7 | 8 =>
            val xs = run(1 + r.nextInt(c.k / 4))
            c.mergeRun(xs, xs.length); ref ++= xs
          case 9 if r.nextInt(8) == 0 =>
            val xs = run(c.size / 2 + r.nextInt(c.size / 2 + 1))
            c.mergeRun(xs, xs.length); ref ++= xs
          case 10 | 11 | 12 if c.isAtCapacity =>
            val from = c.capacity - c.nextCompactionSections * c.k
            assert(bits(c.compact(coins)) == bits(refCompact(from)), at)
          case 13 if r.nextInt(8) == 0 =>
            val expected =
              if (ref.length > c.capacity / 2) refCompact(c.capacity / 2) else Array.emptyDoubleArray
            assert(bits(c.specialCompact(coins)) == bits(expected), at)
          case 14 if r.nextInt(4) == 0 =>
            val stored = if (ref.isEmpty) Nil else List(ref(r.nextInt(ref.length)))
            for (y <- dups.take(7) ++ (draw() :: stored))
              assert(c.countAtMost(y) == ref.count(_ <= y), s"$at y=$y")
            assert(sortedBits(c.toArray) == sortedBits(ref.toArray), at)
          case 15 if r.nextInt(4) == 0 && c.size <= c.capacity =>
            c = serialRoundTrip(c)
          case _ =>
        }
        assert(c.size == ref.length, at)
      }
      assert(sortedBits(c.toArray) == sortedBits(ref.toArray), trial)
    }
  }
}
