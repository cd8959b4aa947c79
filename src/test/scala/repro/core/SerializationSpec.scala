package repro.core

import org.apache.spark.sql.catalyst.encoders.encoderFor
import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Workloads

/** The versioned wire format (`toBytes`/`fromBytes`): round trips, the
  * byte layout, rejection of foreign bytes, and the UDAF buffer's encoding
  * as the same bytes. A sketch has no Java serialization.
  */
class SerializationSpec extends AnyFunSuite {

  private def roundTrip(s: ReqSketch): ReqSketch =
    ReqSketch.fromBytes(ReqSketch.toBytes(s))

  test("round trip preserves n, items, and all rank answers") {
    val data = Workloads.uniform(80000, 1)
    val s = ReqSketch(0.05, 0.1, seed = 2)
    s.updateAll(data)
    val t = roundTrip(s)
    assert(t.n == s.n && t.itemsStored == s.itemsStored)
    val qs = (0 to 50).map(_ / 50.0)
    qs.foreach(q => assert(t.rank(q) == s.rank(q)))
  }

  test("round trip of an empty sketch") {
    val t = roundTrip(ReqSketch(0.1, 0.1, seed = 3))
    assert(t.n == 0 && t.itemsStored == 0)
  }

  test("quantile on bytes with n > 0 and no stored items is NaN") {
    val bytes = ReqSketch.toBytes(ReqSketch(0.1, 0.1, seed = 3))
    java.nio.ByteBuffer.wrap(bytes).putLong(35, 5L) // n, see DESIGN.md
    val s = ReqSketch.fromBytes(bytes)
    assert(s.n == 5 && s.itemsStored == 0 && s.quantile(0.5).isNaN)
  }

  test("deserialized sketch accepts further updates") {
    val s = ReqSketch(0.1, 0.1, seed = 4)
    s.updateAll(Workloads.uniform(10000, 5))
    val t = roundTrip(s)
    t.updateAll(Workloads.uniform(10000, 6))
    assert(t.n == 20000)
    assert(t.rank(Double.MaxValue) == t.totalWeight)
  }

  test("deserialized sketches can merge") {
    val a = ReqSketch(0.1, 0.1, seed = 7)
    a.updateAll(Workloads.uniform(20000, 8))
    val b = ReqSketch(0.1, 0.1, seed = 9)
    b.updateAll(Workloads.uniform(20000, 10))
    val m = roundTrip(a).merge(roundTrip(b))
    assert(m.n == 40000)
  }

  test("round trip preserves parameters and level states") {
    val s = ReqSketch(0.05, 0.1, Theory, seed = 11)
    s.updateAll(Workloads.uniform(100000, 12))
    val t = roundTrip(s)
    assert(t.sectionSize == s.sectionSize)
    assert(t.bufferCapacity == s.bufferCapacity)
    assert(t.nBound == s.nBound)
    (0 to s.height).foreach(h => assert(t.levelState(h) == s.levelState(h)))
  }

  test("serialized size is proportional to items stored, not n") {
    val s = ReqSketch(0.1, 0.1, seed = 13)
    s.updateAll(Workloads.uniform(400000, 14))
    val bytes = ReqSketch.toBytes(s).length
    // Packed key gaps, a few bytes per stored item (DESIGN.md, Wire format);
    // the bound leaves ample room and must still be far below raw n
    assert(bytes < 64 * s.itemsStored + 4096, s"bytes=$bytes items=${s.itemsStored}")
    assert(bytes < 400000 * 8 / 4)
  }

  /** Streams the first half of a uniform stream into a sketch seeded
    * `seed`, round-trips it, streams the second half into both copies and
    * checks that they end in the same bytes.
    */
  private def decodedMidStreamMatches(seed: Long): Unit = {
    val data = Workloads.uniform(1 << 18, 38)
    val (head, tail) = data.splitAt(data.length / 2)
    for ((profile, eps) <- Seq(Practical -> 0.01, FixedK(12) -> 0.01)) {
      val live = ReqSketch(eps, 0.05, profile, seed)
      live.updateAll(head)
      val decoded = roundTrip(live)
      live.updateAll(tail)
      decoded.updateAll(tail)
      assert(ReqSketch.toBytes(decoded).sameElements(ReqSketch.toBytes(live)), s"$profile")
    }
  }

  test("a sketch decoded mid-stream ends in the original's bytes after equal updates") {
    decodedMidStreamMatches(seed = 39)
  }

  test("a seed 0 sketch decoded mid-stream ends in the original's bytes after equal updates") {
    decodedMidStreamMatches(seed = 0)
  }

  test("a merge of 16 decoded chunk sketches has the bytes of the merge of the live ones") {
    val data = Workloads.uniform(1 << 18, 40)
    def chunks: Seq[ReqSketch] = data.grouped(1 << 14).zipWithIndex.map { case (part, i) =>
      val s = ReqSketch(0.01, 0.05, FixedK(12), seed = 41 + i)
      s.updateAll(part)
      s
    }.toSeq
    val live = chunks.reduce(_ merge _)
    val decoded = chunks.map(roundTrip).reduce(_ merge _)
    assert(ReqSketch.toBytes(decoded).sameElements(ReqSketch.toBytes(live)))
  }

  test("FixedK profile (case class) round-trips") {
    val s = ReqSketch(0.1, 0.1, FixedK(16), seed = 15)
    s.updateAll(Workloads.uniform(30000, 16))
    val t = roundTrip(s)
    assert(t.profile == FixedK(16) && t.n == 30000)
  }

  test("serialized size is at most 9 bytes per stored item plus 4 KiB") {
    for (eps <- Seq(0.01, 0.1)) {
      val s = ReqSketch(eps, 0.05, seed = 17)
      s.updateAll(Workloads.uniform(1 << 20, 18))
      val bytes = ReqSketch.toBytes(s).length
      assert(bytes <= 9L * s.itemsStored + 4096, s"eps=$eps bytes=$bytes items=${s.itemsStored}")
    }
  }

  /** Bytes of a sketch holding 3 items at level 0, with the level's item
    * count, the int32 that starts its record after the 63-byte header,
    * replaced by `count`.
    */
  private def withLevelCount(count: Int): Array[Byte] = {
    val s = ReqSketch(0.1, 0.1, seed = 19)
    Seq(1.5, 2.5, 3.5).foreach(s.update)
    val bytes = ReqSketch.toBytes(s)
    assert(java.nio.ByteBuffer.wrap(bytes).getInt(63) == 3)
    java.nio.ByteBuffer.wrap(bytes).putInt(63, count)
    bytes
  }

  test("a negative or above-capacity item count is rejected") {
    assert(ReqSketch.fromBytes(withLevelCount(3)).rank(2.5) == 2)
    val b = ReqSketch(0.1, 0.1, seed = 19).bufferCapacity
    for (bad <- Seq(-1, Int.MinValue, b + 1, Int.MaxValue))
      intercept[java.io.InvalidObjectException](ReqSketch.fromBytes(withLevelCount(bad)))
  }

  test("a level holding a NaN item fails with an InvalidObjectException") {
    val s = ReqSketch(0.1, 0.1, seed = 19)
    Seq(1.5, 2.5, 3.5).foreach(s.update)
    assert(ReqSketch.toBytes(s).drop(63).sameElements(recordOf(1.5, 2.5, 3.5)))
    val bytes = ReqSketch.toBytes(s).take(63) ++ recordOf(1.5, 2.5, Double.NaN) // level 0's third item
    val e = intercept[java.io.InvalidObjectException](ReqSketch.fromBytes(bytes))
    assert(e.getMessage.contains("level 0"))
  }

  test("truncated bytes fail with an IOException") {
    val s = ReqSketch(0.05, 0.1, seed = 20)
    s.updateAll(Workloads.uniform(50000, 21))
    val bytes = ReqSketch.toBytes(s)
    for (cut <- Seq(0, 16, bytes.length / 2, bytes.length - 1))
      intercept[java.io.IOException](ReqSketch.fromBytes(bytes.take(cut)))
  }

  // ------------------------------------------------------------ wire format

  private def sha256(b: Array[Byte]): String =
    java.security.MessageDigest.getInstance("SHA-256").digest(b).map(x => f"${x & 0xff}%02x").mkString

  /** Bytes of a fixed sketch with the header field at `offset` (see the
    * layout table in DESIGN.md) overwritten by `patch`.
    */
  private def patched(offset: Int)(patch: java.nio.ByteBuffer => Any): Array[Byte] = {
    val s = ReqSketch(0.1, 0.1, seed = 22)
    s.updateAll(Workloads.uniform(5000, 23))
    val bytes = ReqSketch.toBytes(s)
    patch(java.nio.ByteBuffer.wrap(bytes).position(offset))
    bytes
  }

  /** `toBytes` of fixed sketches: profile, ε, length and SHA-256. */
  private val goldenBytesV3 = Seq[(ParamProfile, Double, Int, String)](
    (Practical, 0.01, 131842, "8fe552adf2d789e62314ebeb2bbe33651e3ecf2ac02b47c7b200b3a2ffce8fe7"),
    (Theory, 0.05, 178841, "f4cacf656986a367dafd2d25cebbca04ead9b75fd395bb5f66f1c18c742e219a"),
    (FixedK(12), 0.01, 22461, "6cd3f850f083d80d6b9f6a10dadd46de0ef62037ae263fce3b39bb972bad4d08"))

  for ((profile, eps, length, digest) <- goldenBytesV3) {
    test(s"golden bytes: SHA-256 of toBytes for a fixed $profile sketch") {
      val s = ReqSketch(eps, 0.05, profile, seed = 24)
      s.updateAll(Workloads.uniform(100000, 25))
      val bytes = ReqSketch.toBytes(s)
      assert(bytes.length == length && sha256(bytes) == digest)
      assert(ReqSketch.toBytes(ReqSketch.fromBytes(bytes)).sameElements(bytes))
    }
  }

  test("a wrong magic fails with a StreamCorruptedException") {
    intercept[java.io.StreamCorruptedException](ReqSketch.fromBytes(patched(0)(_.putInt(0x52455154))))
    val foreign = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(foreign).writeObject(Array.fill(64)(1.0))
    intercept[java.io.StreamCorruptedException](ReqSketch.fromBytes(foreign.toByteArray))
  }

  test("an unknown version, flags or profile tag fails with an InvalidObjectException") {
    assert(ReqSketch.fromBytes(patched(4)(_.put(3.toByte))).n == 5000)
    for (bytes <- Seq(patched(4)(_.put(4.toByte)), patched(4)(_.put(0.toByte)),
                      patched(4)(_.put(1.toByte)), patched(4)(_.put(2.toByte)),
                      patched(5)(_.put(1.toByte)), patched(5)(_.put(0x80.toByte)),
                      patched(22)(_.put(3.toByte)), patched(22)(_.put(-1.toByte)),
                      patched(23)(_.putInt(12))))
      intercept[java.io.InvalidObjectException](ReqSketch.fromBytes(bytes))
  }

  test("a level count outside [1, 64] fails with an InvalidObjectException") {
    for (bad <- Seq(0, -1, 65, Int.MaxValue, Int.MinValue))
      intercept[java.io.InvalidObjectException](ReqSketch.fromBytes(patched(59)(_.putInt(bad))))
  }

  test("invalid eps, delta, n or N fail with an InvalidObjectException") {
    for (bytes <- Seq(patched(6)(_.putDouble(0.0)), patched(6)(_.putDouble(Double.NaN)),
                      patched(14)(_.putDouble(0.6)), patched(35)(_.putLong(-1L)),
                      patched(43)(_.putLong(4999L))))
      intercept[java.io.InvalidObjectException](ReqSketch.fromBytes(bytes))
  }

  // N = 0 or 1 would never grow by squaring: the next update would hang.
  test("a bound N below the profile's initial bound fails with an InvalidObjectException") {
    for (profile <- Seq(Practical, Theory, FixedK(8))) {
      val s = ReqSketch(0.1, 0.1, profile, seed = 38)
      val bytes = ReqSketch.toBytes(s)
      def withBound(bound: Long): Array[Byte] = {
        val b = bytes.clone(); java.nio.ByteBuffer.wrap(b).putLong(43, bound); b
      }
      assert(ReqSketch.fromBytes(withBound(s.nBound)).nBound == s.nBound)
      for (bad <- Seq(0L, 1L, s.nBound - 1))
        intercept[java.io.InvalidObjectException](ReqSketch.fromBytes(withBound(bad)))
    }
  }

  /** Bytes of an empty sketch with `levels` levels, the top one holding
    * `top`.
    */
  private def withTopLevel(levels: Int, top: Double*): Array[Byte] =
    withRecords(Seq.fill(levels - 1)(recordOf()) :+ recordOf(top: _*): _*)

  test("a stored weight above Long.MaxValue fails with an InvalidObjectException") {
    val s = ReqSketch.fromBytes(withTopLevel(63, 1.0))
    assert(s.rank(3.0) == (1L << 62) && s.totalWeight == (1L << 62))
    for (bytes <- Seq(withTopLevel(64, 1.0), withTopLevel(63, 1.0, 2.0)))
      intercept[java.io.InvalidObjectException](ReqSketch.fromBytes(bytes))
  }

  test("trailing bytes are rejected") {
    val s = ReqSketch(0.1, 0.1, seed = 26)
    s.updateAll(Workloads.uniform(5000, 27))
    val bytes = ReqSketch.toBytes(s)
    for (extra <- Seq(1, 8, 1000))
      intercept[java.io.StreamCorruptedException](ReqSketch.fromBytes(bytes ++ new Array[Byte](extra)))
  }

  test("each level goes on the wire as one sorted run") {
    val s = ReqSketch(0.05, 0.1, seed = 28)
    s.updateAll(Workloads.uniform(200000, 29))
    val in = java.nio.ByteBuffer.wrap(ReqSketch.toBytes(s)).position(63)
    for (h <- 0 to s.height) {
      val (size, state) = (in.getInt(), in.getLong())
      assert(size == s.levelSizes(h) && state == s.levelState(h))
      val first = in.getLong()
      // Blocks of 64 gaps, each a width byte and its gaps packed at that width.
      val gaps = (0 until size - 1).grouped(64).toSeq.flatMap { block =>
        val w = in.get().toInt
        val packed = new Array[Byte](((w.toLong * block.size + 7) / 8).toInt)
        in.get(packed)
        val bits = java.util.BitSet.valueOf(packed)
        val gs = block.indices.map(j => (0 until w).map(b => if (bits.get(j * w + b)) 1L << b else 0L).sum)
        assert(w == 64 - java.lang.Long.numberOfLeadingZeros(gs.foldLeft(0L)(_ | _)), s"level $h")
        gs
      }
      val items = gaps.scanLeft(first)(_ + _).map(RelativeCompactor.item)
      assert(items.sameElements(items.sorted), s"level $h")
      assert(items.sameElements(s.levels(h).sortedKeys.take(size).map(RelativeCompactor.item)), s"level $h")
    }
    assert(!in.hasRemaining)
  }

  /** A level record of state 0 holding the keys `first`, then `first` plus
    * each gap in turn, given as blocks of a width and its gaps, each block a
    * width byte and its gaps packed at that width, low bit first.
    */
  private def record(first: Long, blocks: (Int, Seq[Long])*): Array[Byte] = {
    val packed = for ((w, gaps) <- blocks) yield {
      val bits = new java.util.BitSet
      for ((g, j) <- gaps.zipWithIndex; b <- 0 until math.min(w, 64) if ((g >>> b) & 1) == 1)
        bits.set(j * w + b)
      w.toByte +: java.util.Arrays.copyOf(bits.toByteArray, ((w.toLong * gaps.size + 7) / 8).toInt)
    }
    val out = java.nio.ByteBuffer.allocate(20 + packed.map(_.length).sum)
    out.putInt(blocks.map(_._2.size).sum + 1).putLong(0L).putLong(first)
    packed.foreach(out.put)
    out.array()
  }

  /** The level record `writeRecord` writes for the ascending `items` and
    * state 0: blocks of 64 gaps, each at the width of its widest.
    */
  private def recordOf(items: Double*): Array[Byte] =
    if (items.isEmpty) new Array[Byte](12)
    else {
      val keys = items.map(RelativeCompactor.key)
      val blocks = keys.zip(keys.tail).map { case (a, b) => b - a }.grouped(64).toSeq
        .map(gaps => (64 - java.lang.Long.numberOfLeadingZeros(gaps.reduce(_ | _))) -> gaps)
      record(keys.head, (if (blocks.isEmpty) Seq(0 -> Nil) else blocks): _*)
    }

  /** Bytes of an empty ε = 0.1 sketch whose levels are `records`. */
  private def withRecords(records: Array[Byte]*): Array[Byte] =
    ReqSketch.toBytes(ReqSketch(0.1, 0.1, seed = 40)).take(59) ++
      java.nio.ByteBuffer.allocate(4).putInt(records.size).array() ++ records.flatten

  /** Bytes of one level: each block at its own width. */
  private def v3Level(first: Long, blocks: (Int, Seq[Long])*): Array[Byte] =
    withRecords(record(first, blocks: _*))

  /** The level-0 keys of `bytes`, which must decode to the same bytes. */
  private def decodedKeys(bytes: Array[Byte]): Seq[Long] = {
    val s = ReqSketch.fromBytes(bytes)
    assert(ReqSketch.toBytes(s).sameElements(bytes))
    s.levels(0).sortedKeys.take(s.levelSizes(0)).toSeq
  }

  test("v3: a 63-bit gap widens only its own block") {
    // The gap across zero from key(−1) to key(1) needs 63 bits.
    val (neg, pos) = (RelativeCompactor.key(-1.0), RelativeCompactor.key(1.0))
    val zero = pos - neg - 40
    assert(64 - java.lang.Long.numberOfLeadingZeros(zero) == 63)
    val low = Seq.tabulate(64)(j => (j % 8).toLong)                   // width 3, summing to 224
    val across = Seq.tabulate(64)(j => if (j == 40) zero else 1L)     // width 63
    val tail = Seq.fill(10)(17L)                                      // width 5
    val bytes = v3Level(neg - 224, 3 -> low, 63 -> across, 5 -> tail)
    assert(bytes.length == 63 + 20 + (1 + 8 * 3) + (1 + 8 * 63) + (1 + 7))
    assert(decodedKeys(bytes) == (low ++ across ++ tail).scanLeft(neg - 224)(_ + _))
    val s = ReqSketch.fromBytes(bytes)
    assert(s.itemsStored == 139 && s.rank(-1.0) == 1 + 64 && s.rank(1.0) == 1 + 64 + 41)
  }

  test("v3: a width-0 block between others, and last blocks of 1 and of 63 gaps") {
    val k1 = RelativeCompactor.key(1.0)
    val wide = Seq.tabulate(64)(j => (j * 5 % 16).toLong) // width 4
    for (blocks <- Seq(Seq(4 -> wide, 0 -> Seq.fill(64)(0L), 2 -> Seq(3L, 1L, 0L, 2L)),
                       Seq(4 -> wide, 6 -> Seq(33L)),
                       Seq(4 -> wide, 6 -> Seq.tabulate(63)(j => (j % 2) * 63L)))) {
      val bytes = v3Level(k1, blocks: _*)
      assert(bytes.length == 63 + 20 + blocks.map { case (w, g) => 1 + (w * g.size + 7) / 8 }.sum)
      assert(decodedKeys(bytes) == blocks.flatMap(_._2).scanLeft(k1)(_ + _))
    }
    // A one-key record has one empty block.
    assert(decodedKeys(v3Level(k1, 0 -> Nil)) == Seq(k1))
  }

  test("v3: a width above 64 or keys past Long.MaxValue in a later block are rejected") {
    val ones = 1 -> Seq.fill(64)(1L)
    for (w <- Seq(65, 128, 255))
      intercept[java.io.InvalidObjectException](ReqSketch.fromBytes(v3Level(0L, ones, w -> Seq(1L))))
    // The first block too.
    for (w <- Seq(65, 255))
      intercept[java.io.InvalidObjectException](ReqSketch.fromBytes(v3Level(0L, w -> Seq(1L))))
    val big = (1L << 56) - 1
    // Through the one-getLong path (w ≤ 56, 8 bytes left after the gap), the
    // input's last bytes, the path that also reads a ninth byte (w of 57–64)
    // in the first block, and a 64-bit width.
    for (bytes <- Seq(v3Level(Long.MaxValue - 64 - 3 * big, ones, 56 -> Seq.fill(12)(big)),
                      v3Level(Long.MaxValue - 70, ones, 3 -> Seq(4L, 4L)),
                      v3Level(0L, 63 -> Seq(1L << 62, 1L << 62)),
                      v3Level(0L, ones, 64 -> Seq(Long.MaxValue, 1L)))) {
      val e = intercept[java.io.InvalidObjectException](ReqSketch.fromBytes(bytes))
      assert(e.getMessage.contains("overflow"), e.getMessage)
    }
  }

  test("v3: truncation at every cut fails with an IOException, and a trailing byte is rejected") {
    val s = ReqSketch(0.1, 0.1, seed = 41)
    s.updateAll(Workloads.uniform(20000, 42))
    val bytes = ReqSketch.toBytes(s)
    assert(s.height >= 3 && s.levelSizes.exists(_ > 65)) // some level has several blocks
    for (cut <- 0 until bytes.length)
      intercept[java.io.IOException](ReqSketch.fromBytes(bytes.take(cut)))
    intercept[java.io.StreamCorruptedException](ReqSketch.fromBytes(bytes :+ 0.toByte))
  }

  test("a last key that is a NaN fails with an InvalidObjectException") {
    val (one, inf) = (RelativeCompactor.key(1.0), RelativeCompactor.key(Double.PositiveInfinity))
    assert(ReqSketch.fromBytes(v3Level(one, 63 -> Seq(inf - one))).rank(Double.PositiveInfinity) == 2)
    val e = intercept[java.io.InvalidObjectException](ReqSketch.fromBytes(v3Level(one, 63 -> Seq(inf - one + 1))))
    assert(e.getMessage.contains("NaN") && e.getMessage.contains("level 0"))
    intercept[java.io.InvalidObjectException](
      ReqSketch.fromBytes(v3Level(one, 63 -> Seq(RelativeCompactor.key(Double.NaN) - one))))
  }

  test("all-equal keys take width 0 and no gap bytes") {
    val s = ReqSketch(0.1, 0.1, seed = 43)
    s.updateAll(Array.fill(20000)(2.5))
    assert(s.height >= 2)
    val bytes = ReqSketch.toBytes(s)
    // One width byte per block of 64 gaps, at least one when size > 0.
    assert(bytes.length == 63 + s.levelSizes.map(size => if (size == 0) 12 else 20 + math.max(1, (size + 62) / 64)).sum)
    val t = ReqSketch.fromBytes(bytes)
    assert(state(t) == state(s) && ReqSketch.toBytes(t).sameElements(bytes))
  }

  test("raw bit patterns round-trip, and keys from Long.MinValue up take width 64") {
    val r = new java.util.Random(44)
    val raw = Array.fill(5000) {
      val x = java.lang.Double.longBitsToDouble(r.nextLong())
      if (x.isNaN) 0.0 else x
    }
    val infs = Array.tabulate(5000)(i => if (i % 3 == 0) Double.PositiveInfinity else Double.NegativeInfinity)
    for (xs <- Seq(raw, infs)) {
      val s = ReqSketch(0.1, 0.1, seed = 45)
      s.updateAll(xs)
      val bytes = ReqSketch.toBytes(s)
      val t = ReqSketch.fromBytes(bytes)
      assert(state(t) == state(s) && ReqSketch.toBytes(t).sameElements(bytes))
    }
    // key(−∞) is Long.MinValue, and the gap up to key(+∞) needs all 64 bits.
    assert(RelativeCompactor.key(Double.NegativeInfinity) == Long.MinValue)
    val s = ReqSketch(0.1, 0.1, seed = 45)
    s.updateAll(infs)
    assert(s.height > 0 && s.levelSizes(0) > 1)
    // Level 0's width byte of the block holding the gap from the last −∞, after
    // size, C, the first key and one width byte per block of zero gaps before it.
    val negInfs = s.levels(0).countAtMost(Long.MinValue)
    assert(ReqSketch.toBytes(s)(63 + 12 + 8 + (negInfs - 1) / 64) == 64)
  }

  test("an item count outside [0, B] or sketch parameters a level rejects are refused") {
    val s = ReqSketch(0.1, 0.1, seed = 19)
    Seq(1.5, 2.5, 3.5).foreach(s.update)
    val bytes = ReqSketch.toBytes(s)
    def patchedAt(offset: Int, value: Int): Array[Byte] = {
      val b = bytes.clone(); java.nio.ByteBuffer.wrap(b).putInt(offset, value); b
    }
    assert(ReqSketch.fromBytes(patchedAt(63, 3)).rank(2.5) == 2)
    for (bad <- Seq(-1, Int.MinValue, s.bufferCapacity + 1, Int.MaxValue))
      intercept[java.io.InvalidObjectException](ReqSketch.fromBytes(patchedAt(63, bad)))
    // k at offset 51 and numSections at 55, which level records take from the header.
    for ((offset, bad) <- Seq(51 -> 3, 51 -> 0, 51 -> (1 << 29), 55 -> 1, 55 -> (1 << 30)))
      intercept[java.io.InvalidObjectException](ReqSketch.fromBytes(patchedAt(offset, bad)))
  }

  // A level record of equal keys claims up to B keys in 20 bytes and a width
  // byte per 64 keys, so B must follow from the header's ε, δ and N, as it
  // does in every sketch.
  test("a header whose k or numSections differ from the profile's is refused") {
    val header = ReqSketch.toBytes(ReqSketch(0.1, 0.1, FixedK(8), seed = 46)).take(51)
    def oneLevel(k: Int, sections: Int, size: Int): Array[Byte] =
      java.nio.ByteBuffer.allocate(63 + 21).put(header).putInt(k).putInt(sections).putInt(1)
        .putInt(size).putLong(0L).putLong(RelativeCompactor.key(1.0)).put(0.toByte).array()
    val t = ReqSketch.fromBytes(oneLevel(8, 4, 64)) // N = 64: k = 8, 4 sections, B = 64
    assert(t.bufferCapacity == 64 && t.itemsStored == 64 && t.rank(1.0) == 64)
    val bomb = oneLevel(1 << 18, 2, 1 << 20) // would allocate 8 MiB from 84 bytes
    assert(bomb.length == 84)
    for (bytes <- Seq(bomb, oneLevel(8, 5, 64), oneLevel(10, 4, 64)))
      intercept[java.io.InvalidObjectException](ReqSketch.fromBytes(bytes))
  }

  test("an ε whose profile parameters a level rejects fails with an InvalidObjectException") {
    val (eps, delta) = (1e-9, 0.1)
    val bound = Practical.initialBound(eps, delta)
    val k = Practical.sectionSize(bound, eps, delta)
    val bytes = ReqSketch.toBytes(ReqSketch(0.1, delta, seed = 47))
    java.nio.ByteBuffer.wrap(bytes).putDouble(6, eps).putLong(43, bound)
      .putInt(51, k).putInt(55, Practical.numSections(bound, k))
    intercept[java.io.InvalidObjectException](ReqSketch.fromBytes(bytes))
  }

  /** Full state: parameters, levels, schedule states and the coreset. */
  private def state(s: ReqSketch) =
    (s.n, s.nBound, s.sectionSize, s.bufferCapacity, s.levelSizes,
     (0 to s.height).map(s.levelState), s.coreset.toSeq.map { case (x, w) =>
       (java.lang.Double.doubleToRawLongBits(x), w) })

  test("the UDAF buffer encoder writes a sketch as its wire bytes and reads back its state") {
    for (profile <- Seq(Practical, Theory, FixedK(12))) {
      val s = ReqSketch(0.05, 0.1, profile, seed = 34)
      s.updateAll(Workloads.uniform(100000, 35))
      val encoder = encoderFor(new ReqSketchAggregator(0.05, 0.1, profile, seed = 34).bufferEncoder)
        .resolveAndBind()
      val row = encoder.createSerializer()(s)
      assert(row.numFields == 1 && row.getBinary(0).sameElements(ReqSketch.toBytes(s)), s"$profile")
      assert(state(encoder.createDeserializer()(row)) == state(s), s"$profile")
    }
  }

  test("a ReqSketch is not java.io.Serializable") {
    assert(!classOf[java.io.Serializable].isAssignableFrom(classOf[ReqSketch]))
    val out = new java.io.ObjectOutputStream(new java.io.ByteArrayOutputStream())
    intercept[java.io.NotSerializableException](out.writeObject(ReqSketch(0.05, 0.1, seed = 34)))
  }

  test("toBytes during a stream leaves the sketch's state as without it") {
    def stream(seed: Long): Array[Double] = {
      val r = new java.util.Random(seed)
      Array.fill(1 << 20)(r.nextInt(8) match {
        case 0 => -0.0
        case 1 => 0.0
        case 2 => math.floor(r.nextDouble() * 64)
        case _ => r.nextDouble()
      })
    }
    for ((profile, eps) <- Seq(Practical -> 0.01, Theory -> 0.05, FixedK(12) -> 0.01)) {
      val data = stream(36)
      val (plain, written) = (ReqSketch(eps, 0.05, profile, seed = 37), ReqSketch(eps, 0.05, profile, seed = 37))
      plain.updateAll(data)
      data.grouped(1 << 16).foreach { chunk =>
        written.updateAll(chunk)
        ReqSketch.toBytes(written)
      }
      assert(state(written) == state(plain), s"$profile")
      assert(ReqSketch.toBytes(written).sameElements(ReqSketch.toBytes(plain)), s"$profile")
    }
  }
}
