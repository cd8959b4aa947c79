package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Workloads

/** The versioned wire format (`toBytes`/`fromBytes`): round trips, the
  * byte layout, rejection of foreign bytes, and Java serialization through
  * the same bytes (Spark buffers, task results and the UDAF output).
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
    // ~8-byte doubles plus boxing/structure overhead; must be far below raw n
    assert(bytes < 64 * s.itemsStored + 4096, s"bytes=$bytes items=${s.itemsStored}")
    assert(bytes < 400000 * 8 / 4)
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
    * count replaced by `count`. The level record starts with the int32s k,
    * the item count and numSections.
    */
  private def withLevelCount(count: Int): Array[Byte] = {
    val s = ReqSketch(0.1, 0.1, seed = 19)
    Seq(1.5, 2.5, 3.5).foreach(s.update)
    val bytes = ReqSketch.toBytes(s)
    val sections = s.bufferCapacity / (2 * s.sectionSize)
    val fields = java.nio.ByteBuffer.allocate(12).putInt(s.sectionSize).putInt(3).putInt(sections)
    val at = bytes.indexOfSlice(fields.array())
    assert(at >= 0 && bytes.indexOfSlice(fields.array(), at + 1) < 0)
    java.nio.ByteBuffer.wrap(bytes).putInt(at + 4, count)
    bytes
  }

  test("a negative or above-capacity item count is rejected") {
    assert(ReqSketch.fromBytes(withLevelCount(3)).rank(2.5) == 2)
    val b = ReqSketch(0.1, 0.1, seed = 19).bufferCapacity
    for (bad <- Seq(-1, Int.MinValue, b + 1, Int.MaxValue))
      intercept[java.io.InvalidObjectException](ReqSketch.fromBytes(withLevelCount(bad)))
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

  private val goldenBytes = Seq[(ParamProfile, Double, Int, String)](
    (Practical, 0.01, 195851, "f651d44d0da4c05c4c7263673bb572c6b2280303a6494b832f0996bc2a0195c6"),
    (Theory, 0.05, 269695, "e48600865c507cf3ffd660ef1e51ffb10abc88809289b33559dfed346ece7434"),
    (FixedK(12), 0.01, 30991, "7a8379d977d394aa091c96ccd32027873d99ec131512cf405db915f9607dca7b"))

  for ((profile, eps, length, digest) <- goldenBytes) {
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
    assert(ReqSketch.fromBytes(patched(4)(_.put(1.toByte))).n == 5000)
    for (bytes <- Seq(patched(4)(_.put(2.toByte)), patched(4)(_.put(0.toByte)),
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
      val (k, size, sections, state) = (in.getInt(), in.getInt(), in.getInt(), in.getLong())
      assert(k == s.sectionSize && size == s.levelSizes(h) && 2 * k * sections == s.bufferCapacity)
      assert(state == s.levelState(h))
      val items = Array.fill(size)(in.getDouble())
      assert(items.sameElements(items.sorted), s"level $h")
    }
    assert(!in.hasRemaining)
  }

  /** Full state: parameters, levels, schedule states and the coreset. */
  private def state(s: ReqSketch) =
    (s.n, s.nBound, s.sectionSize, s.bufferCapacity, s.levelSizes,
     (0 to s.height).map(s.levelState), s.coreset.toSeq.map { case (x, w) =>
       (java.lang.Double.doubleToRawLongBits(x), w) })

  test("a level written unsorted decodes and compacts like a full sort") {
    val s = ReqSketch(0.1, 0.1, seed = 30)
    s.updateAll(Workloads.uniform(300, 31).map(x => math.floor(x * 40) - 20.0) ++
      Seq(-0.0, 0.0, -0.0, Double.PositiveInfinity, Double.NegativeInfinity))
    assert(s.height == 0)
    val sorted = ReqSketch.toBytes(s)
    val itemsAt = sorted.length - 8 * s.itemsStored
    val items = java.nio.ByteBuffer.wrap(sorted, itemsAt, 8 * s.itemsStored).asDoubleBuffer()
    val xs = Array.tabulate(s.itemsStored)(items.get)
    val r = new scala.util.Random(32)
    // Fully shuffled, and a sorted prefix followed by a shuffled tail.
    for (order <- Seq(r.shuffle(xs.toSeq), xs.take(150).toSeq ++ r.shuffle(xs.drop(150).toSeq))) {
      val unsorted = sorted.clone()
      val out = java.nio.ByteBuffer.wrap(unsorted, itemsAt, 8 * xs.length).asDoubleBuffer()
      order.foreach(out.put)
      val (reference, decoded) = (ReqSketch.fromBytes(sorted), ReqSketch.fromBytes(unsorted))
      assert(state(decoded) == state(reference))
      val more = Workloads.uniform(50000, 33)
      reference.updateAll(more)
      decoded.updateAll(more)
      assert(decoded.height > 0)
      assert(state(decoded) == state(reference))
    }
  }

  test("Java serialization goes through the wire-format proxy") {
    val s = ReqSketch(0.05, 0.1, FixedK(12), seed = 34)
    s.updateAll(Workloads.uniform(100000, 35))
    val wire = ReqSketch.toBytes(s)
    val bos = new java.io.ByteArrayOutputStream()
    val oos = new java.io.ObjectOutputStream(bos)
    oos.writeObject(s)
    oos.close()
    val serial = bos.toByteArray
    assert(serial.length <= wire.length + 256, s"serialized=${serial.length} wire=${wire.length}")
    assert(serial.indexOfSlice(wire) >= 0)
    assert(serial.indexOfSlice("ReqSketch$Wire".getBytes("UTF-8")) >= 0)
    assert(serial.indexOfSlice("RelativeCompactor".getBytes("UTF-8")) < 0)
    val back = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(serial))
      .readObject().asInstanceOf[ReqSketch]
    assert(state(back) == state(s))
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
