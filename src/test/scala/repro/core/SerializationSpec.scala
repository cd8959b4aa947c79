package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Workloads

/** Java-serialization round trips — the wire format for Spark shuffles and
  * the UDAF output.
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
    * count replaced by `count`. Java serialization writes a compactor's int
    * fields by name: k, len (the item count), numSections.
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
}
